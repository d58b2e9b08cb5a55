package core

import (
	"sort"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Planner is the partial-history testing strategy of Section 7. It mines
// the reference trace and emits plans in three families, ordered by how
// likely they are to flip a component's decision:
//
//  1. Observability gaps — drop a single high-value notification (deletion
//     or deletion-mark events first), or black out one object's entire
//     stream to one component.
//  2. Time traveling — freeze an alternate apiserver at an interesting
//     moment, crash a resteerable component later, and restart it against
//     the frozen view.
//  3. Staleness — freeze an apiserver for a window around each commit.
//  4. Gray failures — degrade (not cut) the links that actually carried
//     watch deliveries in the reference run (fail-slow latency, flaky
//     drop/duplicate/reorder), and compact the store aggressively at mined
//     moments — optionally while an apiserver's watch is stalled — forcing
//     ErrCompacted → relist storms (§4.2's forced-relist hazard).
//
// Causality approximation: gap candidates are restricted to kinds the
// victim actually subscribes to, and (when CausalFilter is set) to objects
// the victim itself wrote to or deletion-adjacent events — "perturbing
// events that are causally related to a component's action are likely to
// trigger bugs" (§7).
type Planner struct {
	// CausalFilter restricts gap candidates to causally-suspect events;
	// disabling it is the unguided ablation used by experiment E6.
	CausalFilter bool
	// CausalRanking orders one-shot drop plans by how many component
	// actions each delivery plausibly caused (trace.CausalGraph.Score).
	CausalRanking bool
	// PrioritizeDeletionPaths puts deletion-adjacent drops first.
	PrioritizeDeletionPaths bool
	// Family toggles for the A1 ablation (all false = every family
	// enabled; the gray-failure family has no toggle).
	DisableGaps       bool
	DisableTimeTravel bool
	DisableStaleness  bool
}

// What Plans mines with: no caller needs a second value of any of these.
const (
	// blackoutWindow is the duration of sustained object blackouts.
	blackoutWindow = 2 * sim.Second
	// maxFreezePoints bounds how many commit times seed time-travel and
	// staleness plans (stride-sampled when exceeded).
	maxFreezePoints = 48
	// grayFreezePoints bounds how many of those freeze points also seed
	// gray-failure plans.
	grayFreezePoints = 6
	// grayWindow is how long a degraded-link window lasts.
	grayWindow = 2 * sim.Second
	// flakyDrop/flakyDup/flakyReorder are the loss/duplication/reorder
	// percentages mined FlakyLinkPlans use.
	flakyDrop, flakyDup, flakyReorder = 50, 25, 25
	// slowExtra/slowJitter are the latency inflation mined SlowLinkPlans use.
	slowExtra, slowJitter = 300 * sim.Millisecond, 100 * sim.Millisecond
	// compactionKeep is the retain limit mined CompactionPressurePlans
	// impose on the store (the store's own floor).
	compactionKeep = 2
)

// crashDelays are the delays between a freeze point and the component
// crash in time-travel plans.
var crashDelays = [...]sim.Duration{sim.Second, 3 * sim.Second}

// NewPlanner returns the default tool configuration.
func NewPlanner() *Planner {
	return &Planner{
		CausalFilter:            true,
		CausalRanking:           true,
		PrioritizeDeletionPaths: true,
	}
}

// Name implements Strategy.
func (p *Planner) Name() string {
	if p.CausalFilter {
		return "partial-history"
	}
	return "ph-unguided"
}

// Plans implements Strategy.
func (p *Planner) Plans(t Target, ref *trace.Trace) []Plan {
	var high, mid, blackouts, travels, low []Plan
	var highScore, midScore []int
	graph := trace.NewCausalGraph(ref, 0)

	// --- Family 1: observability gaps -------------------------------
	type objKey struct {
		to   sim.NodeID
		kind cluster.Kind
		name string
	}
	blackedOut := map[objKey]bool{}
	deliveries := ref.Deliveries
	if p.DisableGaps {
		deliveries = nil
	}
	// trace.ActedOn scans every write; asked once per delivery that is
	// quadratic on a 50-node reference. The same answer from one pass.
	actedOn := map[objKey]bool{}
	for _, w := range ref.Writes {
		actedOn[objKey{w.From, w.Kind, w.Name}] = true
	}
	for _, d := range deliveries {
		// Never perturb the admin's own view: the workload driver is the
		// experimenter, not a system under test.
		if d.To == "admin" {
			continue
		}
		suspect := d.EventType == apiserver.Deleted || d.Terminating
		acted := actedOn[objKey{d.To, d.Kind, d.Name}]
		if p.CausalFilter && !suspect && !acted {
			continue
		}

		// One-shot drop of exactly this delivery, scored by how many
		// component actions it plausibly caused (§7: "perturbing events
		// that are causally related to a component's action are likely to
		// trigger bugs").
		drop := GapPlan{
			Victim:     d.To,
			Kind:       d.Kind,
			Name:       d.Name,
			Type:       d.EventType,
			Occurrence: d.Occurrence,
		}
		score := graph.Score(d)
		if suspect && p.PrioritizeDeletionPaths {
			high = append(high, drop)
			highScore = append(highScore, score)
		} else {
			mid = append(mid, drop)
			midScore = append(midScore, score)
		}

		// Sustained blackout of this object's stream from its first
		// delivery onward (one per object per victim).
		ok := objKey{d.To, d.Kind, d.Name}
		if !blackedOut[ok] {
			blackedOut[ok] = true
			blackouts = append(blackouts, GapPlan{
				Victim: d.To,
				Kind:   d.Kind,
				Name:   d.Name,
				From:   d.Time,
				Until:  d.Time.Add(blackoutWindow),
			})
		}
	}

	// --- Family 2: time traveling ------------------------------------
	freezePoints := sampleTimes(ref.CommitTimes(), maxFreezePoints)
	resteerable := t.Topology.Resteerable
	if p.DisableTimeTravel {
		resteerable = nil
	}
	for _, comp := range resteerable {
		for _, api := range t.Topology.APIServers {
			for _, ft := range freezePoints {
				for _, delay := range crashDelays {
					crashAt := ft.Add(delay)
					if sim.Duration(crashAt) >= sim.Duration(t.Horizon) {
						continue
					}
					travels = append(travels, TimeTravelPlan{
						Component:    comp,
						StaleAPI:     api,
						FreezeAt:     ft.Add(5 * sim.Millisecond),
						CrashAt:      crashAt,
						RestartDelay: 100 * sim.Millisecond,
						HealAt:       crashAt.Add(600 * sim.Millisecond),
					})
				}
			}
		}
	}

	// --- Family 3: staleness ------------------------------------------
	staleAPIs := t.Topology.APIServers
	if p.DisableStaleness {
		staleAPIs = nil
	}
	for _, api := range staleAPIs {
		for _, ft := range freezePoints {
			low = append(low, StalenessPlan{
				Victim: api,
				From:   ft.Add(-sim.Millisecond),
				Until:  ft.Add(2 * sim.Second),
			})
		}
	}

	// --- Family 4: gray failures --------------------------------------
	var gray []Plan
	grayPoints := sampleTimes(freezePoints, grayFreezePoints)

	// Compaction pressure at each mined moment: first pure (retain-limit
	// squeeze alone), then stalling each apiserver across the compaction
	// so its watch resumption is guaranteed to hit ErrCompacted.
	victims := append([]sim.NodeID{""}, t.Topology.APIServers...)
	for _, v := range victims {
		for _, ft := range grayPoints {
			gray = append(gray, CompactionPressurePlan{
				At:   ft.Add(-sim.Millisecond),
				Keep: compactionKeep, Victim: v,
			})
		}
	}

	// Flaky windows on the links that actually carried watch deliveries
	// in the reference run — the mined causal surface, not every pair.
	type link struct{ a, b sim.NodeID }
	linkSeen := map[link]bool{}
	var links []link
	for _, d := range ref.Deliveries {
		if d.To == "admin" {
			continue
		}
		l := link{d.From, d.To}
		if !linkSeen[l] {
			linkSeen[l] = true
			links = append(links, l)
		}
	}
	for _, l := range links {
		for _, ft := range grayPoints {
			from := ft.Add(-sim.Millisecond)
			gray = append(gray, FlakyLinkPlan{
				A: l.a, B: l.b,
				DropPercent:    flakyDrop,
				DupPercent:     flakyDup,
				ReorderPercent: flakyReorder,
				ReorderDelay:   20 * sim.Millisecond,
				From:           from, Until: from.Add(grayWindow),
			})
		}
	}

	// Fail-slow store feeds: stretch each apiserver's link to the store.
	for _, api := range t.Topology.APIServers {
		for _, ft := range grayPoints {
			from := ft.Add(-sim.Millisecond)
			gray = append(gray, SlowLinkPlan{
				A: api, B: infra.StoreID,
				Extra: slowExtra, Jitter: slowJitter,
				From: from, Until: from.Add(grayWindow),
			})
		}
	}

	// Order the one-shot drop buckets by causal score (stable, so equal
	// scores keep trace order). Blackouts, time-travel, and staleness
	// plans carry no per-delivery score and keep construction order.
	if p.CausalRanking {
		sortByScore(high, highScore)
		sortByScore(mid, midScore)
	}

	plans := high
	plans = append(plans, mid...)
	plans = append(plans, blackouts...)
	plans = append(plans, travels...)
	plans = append(plans, low...)
	plans = append(plans, gray...)
	return dedupePlans(plans)
}

// sampleTimes stride-samples times down to max entries, always retaining
// the first and last (no-op when max <= 0 or times already fits).
func sampleTimes(times []sim.Time, max int) []sim.Time {
	if max <= 0 || len(times) <= max {
		return times
	}
	if max == 1 {
		return times[:1]
	}
	out := make([]sim.Time, 0, max)
	stride := float64(len(times)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, times[int(float64(i)*stride)])
	}
	return out
}

// sortByScore stably sorts plans[:len(scores)] by descending score; any
// trailing unscored plans (blackouts appended after the scored drops) keep
// their positions relative to each other at the end.
func sortByScore(plans []Plan, scores []int) {
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	scored := make([]Plan, n)
	for out, in := range idx {
		scored[out] = plans[in]
	}
	copy(plans, scored)
}

func dedupePlans(plans []Plan) []Plan {
	seen := make(map[string]bool, len(plans))
	out := plans[:0]
	for _, p := range plans {
		id := p.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, p)
	}
	return out
}

// PlanFamilies reports how many plans of each family a list contains
// (diagnostics for E6).
func PlanFamilies(plans []Plan) map[string]int {
	out := map[string]int{}
	for _, p := range plans {
		switch p.(type) {
		case GapPlan:
			out["gap"]++
		case TimeTravelPlan:
			out["timetravel"]++
		case StalenessPlan:
			out["staleness"]++
		case CrashPlan:
			out["crash"]++
		case PartitionPlan:
			out["partition"]++
		case SlowLinkPlan:
			out["slowlink"]++
		case FlakyLinkPlan:
			out["flakylink"]++
		case CompactionPressurePlan:
			out["compaction"]++
		default:
			out["other"]++
		}
	}
	return out
}
