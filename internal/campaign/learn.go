// Learning-phase reporting: the JSON-facing view of internal/learn's
// per-seed mining, pruning, and dedup decisions, plus the aggregator
// plumbing that threads them into Stats, the campaign.json artifact, and
// the NDJSON telemetry stream. Everything here is derived from the
// deterministic learning schedule, so it is byte-identical across
// reruns and worker counts.
package campaign

import (
	"sort"

	"repro/internal/learn"
)

// ProfileSummary is one component's learned read-dependency profile in
// artifact form (the full observation→action table stays in-process; the
// artifact carries the shape a triager needs to sanity-check pruning).
type ProfileSummary struct {
	Component string `json:"component"`
	// Deliveries counts every watch delivery the component received in
	// the reference run; Consumed the subset it plausibly consumed
	// (acted within the reaction window, ever wrote the object, or
	// deletion-adjacent).
	Deliveries int `json:"deliveries"`
	Consumed   int `json:"consumed"`
	// Writes / CASWrites count the component's mutating RPCs and the
	// subset updating or deleting existing objects.
	Writes    int `json:"writes"`
	CASWrites int `json:"cas_writes"`
	// Kinds is the sorted set of kinds with at least one consumed
	// delivery.
	Kinds []string `json:"kinds,omitempty"`
}

// PruneRecord is one deferred plan's decision record (kept plans are not
// recorded individually — the counts in SeedLearn cover them).
type PruneRecord struct {
	// Index is the plan's position in the strategy's original order.
	Index int    `json:"index"`
	Plan  string `json:"plan"`
	// Action is "prune" (empty consumed surface) or "dedupe" (equal
	// equivalence class as an earlier kept plan).
	Action string `json:"action"`
	Reason string `json:"reason"`
	// Class is the plan's equivalence class; Surface the number of
	// consumed deliveries its perturbation could intersect.
	Class   string `json:"class,omitempty"`
	Surface int    `json:"surface"`
	// Representative is the original index of the kept plan covering
	// this one (-1 for prunes).
	Representative int `json:"representative"`
}

// SeedLearn is one seed's learning-phase report.
type SeedLearn struct {
	Seed int64 `json:"seed"`
	// Planned/Kept/Pruned/Deduped are the schedule's plan accounting:
	// Planned = Kept + Pruned + Deduped.
	Planned int `json:"planned"`
	Kept    int `json:"kept"`
	Pruned  int `json:"pruned"`
	Deduped int `json:"deduped"`
	// ConsumedDeliveries is the size of the mined global consumed list —
	// the substrate every surface computation indexes into.
	ConsumedDeliveries int `json:"consumed_deliveries"`
	// Profiles lists every profiled component, sorted by name.
	Profiles []ProfileSummary `json:"profiles"`
	// Decisions lists every deferred plan (prunes and dedupes), in
	// original plan order.
	Decisions []PruneRecord `json:"pruned_plans,omitempty"`
}

// noteLearn records one seed's learning schedule into the aggregator.
func (a *aggregator) noteLearn(seed int64, m *learn.Model, sched *learn.Schedule) {
	sl := SeedLearn{
		Seed:               seed,
		Planned:            sched.Stats.Planned,
		Kept:               sched.Stats.Kept,
		Pruned:             sched.Stats.Pruned,
		Deduped:            sched.Stats.Deduped,
		ConsumedDeliveries: m.ConsumedCount(),
	}
	for _, id := range m.Components() {
		p := m.Profiles[id]
		kinds := make([]string, 0, len(p.Kinds))
		for _, k := range p.Kinds {
			kinds = append(kinds, string(k))
		}
		sl.Profiles = append(sl.Profiles, ProfileSummary{
			Component:  string(id),
			Deliveries: p.Deliveries,
			Consumed:   len(p.Consumed),
			Writes:     p.Writes,
			CASWrites:  p.CASWrites,
			Kinds:      kinds,
		})
	}
	for _, d := range sched.Decisions {
		if d.Action == learn.Keep {
			continue
		}
		sl.Decisions = append(sl.Decisions, PruneRecord{
			Index:          d.Index,
			Plan:           d.Plan.ID(),
			Action:         string(d.Action),
			Reason:         d.Reason,
			Class:          d.Class,
			Surface:        d.Surface,
			Representative: d.Representative,
		})
	}
	sort.Slice(sl.Decisions, func(i, j int) bool { return sl.Decisions[i].Index < sl.Decisions[j].Index })
	a.part.Learn = append(a.part.Learn, sl)
	a.part.Stats.PlansPruned += sched.Stats.Pruned
	a.part.Stats.PlansDeduped += sched.Stats.Deduped
}

// notePrunedExecution counts one deferred-tail execution from the
// deterministic execution set; unsound marks a tail detection the kept
// set missed entirely — the soundness regression every pruned campaign
// reports (and CI asserts == 0).
func (a *aggregator) notePrunedExecution(unsound bool) {
	a.part.Stats.PrunedExecuted++
	if unsound {
		a.part.Stats.PruningUnsoundDetections++
	}
}

// affinity mines the past-bucket signature affinity table: for every
// detected failure bucket merged so far (the earlier seeds of the sweep),
// the coverage class of its example plan. The learning phase's ranker
// boosts plans in these classes — "a sibling of this plan found a bug
// before". Deterministic: derived only from the deterministic bucket
// state, and consumed as an order-free map.
func (r Result) affinity() map[string]int {
	out := make(map[string]int)
	for _, b := range r.Buckets {
		if b.Detected && b.example != nil {
			out[learn.ClassOf(b.example)]++
		}
	}
	return out
}
