// Package explain turns a detected violation into a causal story a
// developer can read: the chain from the perturbed or suppressed
// observation, through the component whose partial view (H', S') diverged
// from the ground truth (H, S), through the action the component took (or
// failed to take) on that divergent view, down to the oracle violation —
// the §7 "minimal perturbation plus causal chain" report format.
//
// Explanations are pure functions of (target, plan, seed, reference trace,
// perturbed trace, violations): the simulation's determinism means an
// explanation is byte-identical across reruns, so it can be asserted in
// golden tests and diffed across code changes.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Step kinds, in causal order. A chain always ends with StepViolation.
const (
	StepPerturbation = "perturbation"           // the injected fault, as scheduled
	StepSuppressed   = "suppressed-observation" // a reference delivery the plan removed or stalled
	StepDivergence   = "divergence"             // first delivery where the component's view departs from the reference
	StepAction       = "action"                 // a write the component issued that the reference run did not
	StepMissing      = "missing-action"         // a reference write the component never issued
	StepViolation    = "violation"              // the oracle breach terminating the chain
)

// Step is one link of the causal chain.
type Step struct {
	Kind string `json:"kind"`
	// Time is the virtual time of the step (nanoseconds); -1 when the step
	// has no single instant (e.g. a missing action).
	Time   int64  `json:"time_ns"`
	Detail string `json:"detail"`
}

// Metrics quantifies the view divergence the perturbation induced in the
// affected component — the §4.2 pattern magnitudes.
type Metrics struct {
	// StalenessLagRevisions is the largest number of committed revisions
	// the component's observed frontier trailed the ground truth (§4.2.1).
	StalenessLagRevisions int64 `json:"staleness_lag_revisions"`
	// StalenessLagNanos is the largest virtual-time age of the component's
	// frontier: commit time of the newest committed event minus commit
	// time of the newest event the component had observed.
	StalenessLagNanos int64 `json:"staleness_lag_ns"`
	// GapWidth counts reference deliveries to the component that the
	// perturbed execution never delivered (§4.2.3).
	GapWidth int `json:"gap_width"`
	// TimeTravelEpisodes / TimeTravelDepth summarize revision regressions
	// in the component's observation order: how many of its deliveries
	// carried a revision below the highest it had observed before them — a
	// run of such deliveries after one travel back counts each of them, not
	// once — and the deepest regression in revisions (§4.2.2).
	TimeTravelEpisodes int   `json:"time_travel_episodes"`
	TimeTravelDepth    int64 `json:"time_travel_depth"`
	// ForcedRelists counts bursts of re-observed ADDED events — the
	// signature of a component re-listing state it had already seen (after
	// a restart, an upstream switch, or a compacted watch window).
	ForcedRelists int `json:"forced_relists"`
	// DroppedDeliveries counts watch pushes to the component lost in flight
	// in the perturbed run (flaky links, partitions) — observations the
	// component never received at all.
	DroppedDeliveries int `json:"dropped_deliveries"`
	// DuplicatedDeliveries counts watch pushes the component observed more
	// than once (duplicated links).
	DuplicatedDeliveries int `json:"duplicated_deliveries"`
	// RelistStorm is how many more full list operations the perturbed run
	// issued system-wide than the reference — the width of a §4.2 forced
	// relist storm (compaction racing watch resumption). It deliberately
	// counts every consumer — informer relists against apiservers AND
	// apiserver bootstraps against the store — because compaction
	// pressure's blast radius is the whole read path, not just the chain's
	// protagonist.
	RelistStorm int `json:"relist_storm_width"`
}

func (m Metrics) String() string {
	return fmt.Sprintf("staleness-lag=%drev/%s gap-width=%d time-travel=%dx/depth %d forced-relists=%d dropped=%d duplicated=%d relist-storm=%d",
		m.StalenessLagRevisions, sim.Duration(m.StalenessLagNanos), m.GapWidth,
		m.TimeTravelEpisodes, m.TimeTravelDepth, m.ForcedRelists,
		m.DroppedDeliveries, m.DuplicatedDeliveries, m.RelistStorm)
}

// Explanation is the full report for one detected bucket: the minimal
// plan's causal chain and divergence metrics for the affected component.
type Explanation struct {
	Target string `json:"target"`
	Bug    string `json:"bug"`
	Seed   int64  `json:"seed"`
	PlanID string `json:"plan_id"`
	Plan   string `json:"plan"`
	// Component is the component whose partial view the perturbation
	// corrupted (the chain's protagonist).
	Component string  `json:"component"`
	Chain     []Step  `json:"chain"`
	Metrics   Metrics `json:"metrics"`
}

// Explain runs the reference and the perturbed execution itself and
// derives the explanation. Campaign engines that already hold the
// reference trace should use FromTraces instead.
func Explain(t core.Target, p core.Plan, seed int64) *Explanation {
	ref, _ := core.ReferenceSeed(t, seed)
	pert, violations := core.TracePlanSeed(t, p, seed)
	return FromTraces(t, p, seed, ref, pert, violations)
}

// FromTraces derives the causal chain and divergence metrics from an
// already-recorded pair of executions. It never runs the cluster.
func FromTraces(t core.Target, p core.Plan, seed int64, ref, pert *trace.Trace, violations []oracle.Violation) *Explanation {
	e := &Explanation{
		Target: t.Name,
		Bug:    t.Bug,
		Seed:   seed,
		PlanID: p.ID(),
		Plan:   p.Describe(),
	}

	leaves := Leaves(p)
	comp := affectedComponent(leaves, ref, pert)
	e.Component = string(comp)

	// 1. Perturbation steps: each injected fault at its activation time.
	for _, leaf := range leaves {
		e.Chain = append(e.Chain, perturbationSteps(leaf, ref)...)
	}

	// 2. Divergence: the first delivery where the component's view departs
	// from the reference sequence. Time-travel plans get a sharper anchor:
	// the delivery where the restarted component's observed revision moves
	// backwards (positional comparison would only flag the re-list
	// deliveries as trailing extras, long after the stale read mattered).
	if comp != "" {
		st, ok := Step{}, false
		if hasTimeTravel(leaves) {
			st, ok = timeTravelDivergence(comp, pert)
		}
		if !ok {
			st, ok = divergenceStep(comp, ref, pert)
		}
		if ok {
			e.Chain = append(e.Chain, st)
		}
		// 3. Action / missing action after the divergence.
		if st, ok := actionStep(comp, ref, pert); ok {
			e.Chain = append(e.Chain, st)
		}
		e.Metrics = measure(comp, ref, pert)
	}

	// 4. The oracle violation terminates the chain.
	if v := bugViolation(violations, t.Bug); v != nil {
		detail := fmt.Sprintf("oracle %s: %s", v.Oracle, v.Detail)
		if v.Object != "" {
			detail = fmt.Sprintf("oracle %s on %s/%s: %s", v.Oracle, v.Kind, v.Object, v.Detail)
		}
		e.Chain = append(e.Chain, Step{Kind: StepViolation, Time: int64(v.Time), Detail: detail})
	}

	sortChain(e.Chain)
	return e
}

// Leaves flattens a plan into its primitive perturbations (SequencePlans
// are recursively expanded).
func Leaves(p core.Plan) []core.Plan {
	if seq, ok := p.(core.SequencePlan); ok {
		var out []core.Plan
		for _, sub := range seq.Plans {
			out = append(out, Leaves(sub)...)
		}
		return out
	}
	return []core.Plan{p}
}

// affectedComponent picks the chain's protagonist: the component the plan
// explicitly victimizes, else the component whose delivery sequence
// diverges earliest from the reference.
func affectedComponent(leaves []core.Plan, ref, pert *trace.Trace) sim.NodeID {
	for _, leaf := range leaves {
		switch q := leaf.(type) {
		case core.GapPlan:
			return q.Victim
		case core.DropDeliveryPlan:
			return q.Victim
		case core.DelayDeliveryPlan:
			return q.Victim
		case core.TimeTravelPlan:
			return q.Component
		case core.CrashPlan:
			return q.Component
		case core.FlakyLinkPlan:
			// A degraded link names two endpoints; the protagonist is the
			// consumer end (the component whose view the link feeds).
			if id, ok := consumerEnd(ref, q.A, q.B); ok {
				return id
			}
		case core.SlowLinkPlan:
			if id, ok := consumerEnd(ref, q.A, q.B); ok {
				return id
			}
		}
	}
	// Staleness, partition, and compaction plans name infrastructure, not
	// the consumer;
	// find the consumer whose view diverges first.
	bestComp := sim.NodeID("")
	bestIdx := -1
	for _, comp := range ref.Components() {
		idx := firstDivergence(ref.DeliveriesTo(comp), pert.DeliveriesTo(comp))
		if idx < 0 {
			continue
		}
		if bestIdx < 0 || idx < bestIdx || (idx == bestIdx && comp < bestComp) {
			bestComp, bestIdx = comp, idx
		}
	}
	if bestIdx >= 0 {
		return bestComp
	}
	if comps := ref.Components(); len(comps) > 0 {
		return comps[0]
	}
	return ""
}

// consumerEnd picks which endpoint of a degraded link is a watch consumer
// (received deliveries in the reference run), preferring b — mined link
// plans put the consumer second.
func consumerEnd(ref *trace.Trace, a, b sim.NodeID) (sim.NodeID, bool) {
	comps := ref.Components()
	for _, id := range []sim.NodeID{b, a} {
		for _, c := range comps {
			if c == id {
				return id, true
			}
		}
	}
	return "", false
}

// deliveryKey is the view-relevant identity of a delivery, ignoring
// transport details (sequence numbers, arrival jitter).
func deliveryKey(d trace.Delivery) string {
	return fmt.Sprintf("%s|%s|%s|rev%d", d.Kind, d.Name, d.EventType, d.Revision)
}

// firstDivergence returns the first index at which two delivery sequences
// differ, or -1 if one is a prefix of the other of equal length.
func firstDivergence(a, b []trace.Delivery) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if deliveryKey(a[i]) != deliveryKey(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// perturbationSteps renders one primitive plan as chain steps, locating
// suppressed observations in the reference trace where possible.
func perturbationSteps(leaf core.Plan, ref *trace.Trace) []Step {
	switch q := leaf.(type) {
	case core.GapPlan:
		steps := []Step{}
		if d, ok := findReferenceDelivery(ref, q); ok {
			steps = append(steps,
				Step{Kind: StepPerturbation, Time: int64(d.Time), Detail: leaf.Describe()},
				Step{Kind: StepSuppressed, Time: int64(d.Time),
					Detail: fmt.Sprintf("%s %s/%s (rev %d) to %s suppressed — the reference run delivered it at %s",
						d.EventType, d.Kind, d.Name, d.Revision, d.To, d.Time)})
			return steps
		}
		return []Step{{Kind: StepPerturbation, Time: int64(q.From), Detail: leaf.Describe()}}
	case core.DropDeliveryPlan:
		if d, ok := findDeliveryOccurrence(ref, q.Victim, q.Kind, q.Name, q.Type, q.Occurrence); ok {
			return []Step{
				{Kind: StepPerturbation, Time: int64(d.Time), Detail: leaf.Describe()},
				{Kind: StepSuppressed, Time: int64(d.Time),
					Detail: fmt.Sprintf("%s %s/%s (rev %d) to %s dropped at delivery — the reference run delivered it at %s",
						d.EventType, d.Kind, d.Name, d.Revision, d.To, d.Time)},
			}
		}
		return []Step{{Kind: StepPerturbation, Time: -1, Detail: leaf.Describe()}}
	case core.DelayDeliveryPlan:
		if d, ok := findDeliveryOccurrence(ref, q.Victim, q.Kind, q.Name, q.Type, q.Occurrence); ok {
			return []Step{
				{Kind: StepPerturbation, Time: int64(d.Time), Detail: leaf.Describe()},
				{Kind: StepSuppressed, Time: int64(d.Time),
					Detail: fmt.Sprintf("%s %s/%s (rev %d) to %s deferred by %s — the reference run delivered it at %s",
						d.EventType, d.Kind, d.Name, d.Revision, d.To, q.Delay, d.Time)},
			}
		}
		return []Step{{Kind: StepPerturbation, Time: -1, Detail: leaf.Describe()}}
	case core.StalenessPlan:
		steps := []Step{{Kind: StepPerturbation, Time: int64(q.From), Detail: leaf.Describe()}}
		if n, first, ok := stalledDeliveries(ref, q.Victim, q.From, q.Until); ok {
			steps = append(steps, Step{Kind: StepSuppressed, Time: int64(first.Time),
				Detail: fmt.Sprintf("%d reference deliveries through %s stalled behind the freeze, first: %s %s/%s (rev %d) to %s",
					n, q.Victim, first.EventType, first.Kind, first.Name, first.Revision, first.To)})
		}
		return steps
	case core.TimeTravelPlan:
		frozenRev := revisionAt(ref, q.FreezeAt)
		return []Step{
			{Kind: StepPerturbation, Time: int64(q.FreezeAt),
				Detail: fmt.Sprintf("freeze %s at %s — it preserves the historical view at revision %d", q.StaleAPI, q.FreezeAt, frozenRev)},
			{Kind: StepPerturbation, Time: int64(q.CrashAt),
				Detail: fmt.Sprintf("crash %s at %s and steer its restart onto frozen %s", q.Component, q.CrashAt, q.StaleAPI)},
		}
	case core.CrashPlan:
		return []Step{{Kind: StepPerturbation, Time: int64(q.At), Detail: leaf.Describe()}}
	case core.PartitionPlan:
		return []Step{{Kind: StepPerturbation, Time: int64(q.From), Detail: leaf.Describe()}}
	case core.SlowLinkPlan:
		return []Step{{Kind: StepPerturbation, Time: int64(q.From), Detail: leaf.Describe()}}
	case core.FlakyLinkPlan:
		return []Step{{Kind: StepPerturbation, Time: int64(q.From), Detail: leaf.Describe()}}
	case core.CompactionPressurePlan:
		return []Step{{Kind: StepPerturbation, Time: int64(q.At),
			Detail: fmt.Sprintf("%s — watch windows older than the floor now fail with ErrCompacted", leaf.Describe())}}
	default:
		return []Step{{Kind: StepPerturbation, Time: -1, Detail: leaf.Describe()}}
	}
}

// findReferenceDelivery locates the delivery a GapPlan suppresses in the
// reference trace (by occurrence, or the first window match).
func findReferenceDelivery(ref *trace.Trace, q core.GapPlan) (trace.Delivery, bool) {
	for _, d := range ref.Deliveries {
		if d.To != q.Victim || d.Kind != q.Kind || d.Name != q.Name {
			continue
		}
		if q.Type != "" && d.EventType != q.Type {
			continue
		}
		if q.Occurrence > 0 {
			if d.Occurrence == q.Occurrence {
				return d, true
			}
			continue
		}
		if d.Time >= q.From && (q.Until == 0 || d.Time <= q.Until) {
			return d, true
		}
	}
	return trace.Delivery{}, false
}

// findDeliveryOccurrence locates the occurrence-th reference delivery
// matching a delivery-coordinate plan, counting matching deliveries in
// arrival order — the same stream the delivery gate counts.
func findDeliveryOccurrence(ref *trace.Trace, victim sim.NodeID, kind cluster.Kind, name string, typ apiserver.EventType, occurrence int) (trace.Delivery, bool) {
	seen := 0
	for _, d := range ref.Deliveries {
		if d.To != victim || d.Kind != kind || d.Name != name {
			continue
		}
		if typ != "" && d.EventType != typ {
			continue
		}
		seen++
		if seen == occurrence {
			return d, true
		}
	}
	return trace.Delivery{}, false
}

// stalledDeliveries counts reference deliveries relayed by the frozen
// apiserver inside the freeze window and returns the first.
func stalledDeliveries(ref *trace.Trace, victim sim.NodeID, from, until sim.Time) (int, trace.Delivery, bool) {
	n := 0
	var first trace.Delivery
	for _, d := range ref.Deliveries {
		if d.From != victim || d.Time < from {
			continue
		}
		if until > 0 && d.Time > until {
			continue
		}
		if n == 0 {
			first = d
		}
		n++
	}
	return n, first, n > 0
}

// revisionAt returns the newest committed revision at or before t in the
// reference run — the view a frozen apiserver preserves.
func revisionAt(ref *trace.Trace, t sim.Time) int64 {
	var rev int64
	for _, e := range ref.Commits {
		if sim.Time(e.Time) <= t && e.Revision > rev {
			rev = e.Revision
		}
	}
	return rev
}

// divergenceStep describes where the component's observation sequence
// departs from the reference.
func divergenceStep(comp sim.NodeID, ref, pert *trace.Trace) (Step, bool) {
	rd, pd := ref.DeliveriesTo(comp), pert.DeliveriesTo(comp)
	idx := firstDivergence(rd, pd)
	if idx < 0 {
		return Step{}, false
	}
	describe := func(d trace.Delivery) string {
		return fmt.Sprintf("%s %s/%s (rev %d)", d.EventType, d.Kind, d.Name, d.Revision)
	}
	switch {
	case idx < len(rd) && idx < len(pd):
		return Step{Kind: StepDivergence, Time: int64(pd[idx].Time),
			Detail: fmt.Sprintf("%s's view diverges at delivery #%d: reference observed %s, perturbed run observed %s",
				comp, idx+1, describe(rd[idx]), describe(pd[idx]))}, true
	case idx < len(rd):
		return Step{Kind: StepDivergence, Time: int64(rd[idx].Time),
			Detail: fmt.Sprintf("%s's view diverges at delivery #%d: reference observed %s, perturbed run observed nothing further",
				comp, idx+1, describe(rd[idx]))}, true
	default:
		return Step{Kind: StepDivergence, Time: int64(pd[idx].Time),
			Detail: fmt.Sprintf("%s's view diverges at delivery #%d: perturbed run observed extra %s",
				comp, idx+1, describe(pd[idx]))}, true
	}
}

// hasTimeTravel reports whether any primitive plan is a time-travel
// perturbation.
func hasTimeTravel(leaves []core.Plan) bool {
	for _, leaf := range leaves {
		if _, ok := leaf.(core.TimeTravelPlan); ok {
			return true
		}
	}
	return false
}

// timeTravelDivergence anchors the divergence step for time-travel plans:
// the first delivery at which the component's observed revision moves
// backwards — the restarted component reading the frozen apiserver's
// historical view (paper §4.2.2).
func timeTravelDivergence(comp sim.NodeID, pert *trace.Trace) (Step, bool) {
	var maxRev int64
	for _, d := range pert.DeliveriesTo(comp) {
		if d.Revision > maxRev {
			maxRev = d.Revision
			continue
		}
		if d.Revision < maxRev {
			return Step{Kind: StepDivergence, Time: int64(d.Time),
				Detail: fmt.Sprintf("%s observes %s %s/%s at rev %d after having seen rev %d — its view travelled %d revisions back in time",
					comp, d.EventType, d.Kind, d.Name, d.Revision, maxRev, maxRev-d.Revision)}, true
		}
	}
	return Step{}, false
}

// writeKey is the intent-level identity of a write.
func writeKey(w trace.Write) string {
	return fmt.Sprintf("%s|%s|%s", w.Method, w.Kind, w.Name)
}

// actionStep finds the component's first action that departs from the
// reference write sequence: an extra write (it acted on the divergent
// view) or a missing one (the divergent view suppressed the action).
func actionStep(comp sim.NodeID, ref, pert *trace.Trace) (Step, bool) {
	var rw, pw []trace.Write
	for _, w := range ref.Writes {
		if w.From == comp {
			rw = append(rw, w)
		}
	}
	for _, w := range pert.Writes {
		if w.From == comp {
			pw = append(pw, w)
		}
	}
	n := len(rw)
	if len(pw) < n {
		n = len(pw)
	}
	for i := 0; i < n; i++ {
		if writeKey(rw[i]) != writeKey(pw[i]) {
			return Step{Kind: StepAction, Time: int64(pw[i].Time),
				Detail: fmt.Sprintf("%s issues %s %s/%s instead of the reference's %s %s/%s — acting on its divergent view",
					comp, pw[i].Method, pw[i].Kind, pw[i].Name, rw[i].Method, rw[i].Kind, rw[i].Name)}, true
		}
	}
	if len(pw) > len(rw) {
		w := pw[len(rw)]
		return Step{Kind: StepAction, Time: int64(w.Time),
			Detail: fmt.Sprintf("%s issues %s %s/%s — an action the reference run never took",
				comp, w.Method, w.Kind, w.Name)}, true
	}
	if len(rw) > len(pw) {
		w := rw[len(pw)]
		return Step{Kind: StepMissing, Time: -1,
			Detail: fmt.Sprintf("%s never issues %s %s/%s (the reference run did at %s)",
				comp, w.Method, w.Kind, w.Name, w.Time)}, true
	}
	return Step{}, false
}

// measure computes the divergence metrics for the affected component.
func measure(comp sim.NodeID, ref, pert *trace.Trace) Metrics {
	var m Metrics
	pd := pert.DeliveriesTo(comp)

	// Time travel: revision regressions in delivery order.
	revs := make([]int64, len(pd))
	for i, d := range pd {
		revs[i] = d.Revision
	}
	m.TimeTravelEpisodes, m.TimeTravelDepth = history.TimeTravel(revs)

	// Gap width: reference deliveries (by view-relevant identity) that the
	// perturbed execution never delivered to the component.
	seen := map[string]int{}
	for _, d := range pd {
		seen[deliveryKey(d)]++
	}
	for _, d := range ref.DeliveriesTo(comp) {
		k := deliveryKey(d)
		if seen[k] > 0 {
			seen[k]--
			continue
		}
		m.GapWidth++
	}

	// Staleness: walk commits and the component's deliveries in time
	// order, tracking how far the observed frontier trails the committed
	// one, in revisions and in commit-time age.
	commitTime := map[int64]sim.Time{}
	for _, e := range pert.Commits {
		commitTime[e.Revision] = sim.Time(e.Time)
	}
	var frontier int64
	di := 0
	for _, e := range pert.Commits {
		for di < len(pd) && pd[di].Time <= sim.Time(e.Time) {
			if pd[di].Revision > frontier {
				frontier = pd[di].Revision
			}
			di++
		}
		if frontier == 0 {
			continue // component had not observed anything yet
		}
		if lag := e.Revision - frontier; lag > m.StalenessLagRevisions {
			m.StalenessLagRevisions = lag
		}
		if ft, ok := commitTime[frontier]; ok {
			if age := int64(sim.Time(e.Time) - ft); age > m.StalenessLagNanos {
				m.StalenessLagNanos = age
			}
		}
	}

	// Forced relists: bursts of re-observed ADDED events (occurrence > 1)
	// — a component re-listing state it had already seen.
	inBurst := false
	for _, d := range pd {
		dup := d.EventType == "ADDED" && d.Occurrence > 1
		if dup && !inBurst {
			m.ForcedRelists++
		}
		inBurst = dup
	}

	// Gray-failure divergence: deliveries the link lost or echoed, and the
	// relist storm width — extra full lists versus the reference run (the
	// §4.2 cost of compaction racing watch resumption).
	m.DroppedDeliveries = pert.DroppedPushesTo(comp)
	m.DuplicatedDeliveries = pert.DuplicatePushesTo(comp)
	if storm := len(pert.Lists) - len(ref.Lists); storm > 0 {
		m.RelistStorm = storm
	}
	return m
}

// bugViolation returns the first violation of the target bug's oracle.
func bugViolation(violations []oracle.Violation, bug string) *oracle.Violation {
	for _, v := range violations {
		if v.Oracle == bug {
			vv := v
			return &vv
		}
	}
	return nil
}

// kindRank orders chain steps that share a timestamp causally.
func kindRank(kind string) int {
	switch kind {
	case StepPerturbation:
		return 0
	case StepSuppressed:
		return 1
	case StepDivergence:
		return 2
	case StepAction:
		return 3
	case StepMissing:
		return 4
	case StepViolation:
		return 5
	default:
		return 6
	}
}

// sortChain orders steps by time (unknown-time steps keep causal rank
// order at the position their rank dictates, sorted after timed steps of
// lower rank).
func sortChain(chain []Step) {
	sort.SliceStable(chain, func(i, j int) bool {
		// The oracle violation terminates the chain regardless of recorded
		// instants: oracles evaluate periodically, so a violation's
		// timestamp can precede later-collected evidence steps.
		vi, vj := chain[i].Kind == StepViolation, chain[j].Kind == StepViolation
		if vi != vj {
			return vj
		}
		ri, rj := kindRank(chain[i].Kind), kindRank(chain[j].Kind)
		ti, tj := chain[i].Time, chain[j].Time
		// Unknown times sort by rank alone.
		if ti < 0 || tj < 0 {
			if ri != rj {
				return ri < rj
			}
			return ti >= 0 && tj < 0
		}
		if ti != tj {
			return ti < tj
		}
		if ri != rj {
			return ri < rj
		}
		return chain[i].Detail < chain[j].Detail
	})
}

// Render prints the explanation as the indented text block phtest and
// traceview show (and golden tests pin down).
func (e *Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed %d — minimal plan: %s\n", e.Target, e.Seed, e.Plan)
	fmt.Fprintf(&b, "  affected component: %s\n", e.Component)
	for i, st := range e.Chain {
		ts := "        ?"
		if st.Time >= 0 {
			ts = fmt.Sprintf("%9s", sim.Time(st.Time))
		}
		fmt.Fprintf(&b, "  %d. [%s] %-24s %s\n", i+1, ts, st.Kind+":", st.Detail)
	}
	fmt.Fprintf(&b, "  divergence: %s\n", e.Metrics)
	return b.String()
}

// RenderTimeline prints the chain as an ASCII divergence timeline: virtual
// time on the vertical axis, one row per step, bar length proportional to
// elapsed time since the first step.
func (e *Explanation) RenderTimeline() string {
	var first, last int64 = -1, -1
	for _, st := range e.Chain {
		if st.Time < 0 {
			continue
		}
		if first < 0 || st.Time < first {
			first = st.Time
		}
		if st.Time > last {
			last = st.Time
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %s seed %d (%s)\n", e.Target, e.Seed, e.Plan)
	if first < 0 {
		b.WriteString("  (no timed steps)\n")
		return b.String()
	}
	span := last - first
	const width = 40
	for _, st := range e.Chain {
		if st.Time < 0 {
			fmt.Fprintf(&b, "  %-11s %-40s %s\n", "?", "", st.Kind)
			continue
		}
		pos := 0
		if span > 0 {
			pos = int(int64(width) * (st.Time - first) / span)
		}
		bar := strings.Repeat("-", pos) + "*"
		fmt.Fprintf(&b, "  %-11s %-41s %s\n", sim.Time(st.Time), bar, st.Kind)
	}
	return b.String()
}
