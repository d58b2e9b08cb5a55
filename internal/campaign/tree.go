package campaign

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the fork substrate: the one implementation of "skip the
// prefix this execution shares with a run we already have". A planTree is
// built by executing a BASE plan once from t=0 and capturing cluster
// snapshots (rungs) along the way; a candidate plan Q then forks from the
// deepest rung up to which Q's execution is provably identical to the base
// run, instead of replaying Build + warmup + workload + the shared
// perturbations from t=0.
//
// Two shapes of base cover every consumer:
//
//   - the plan-free base (core.NopPlan): the base run IS the reference
//     run. The engine builds one such tree per (target, seed) and forks
//     every plan of the sweep from it; the explorer (Forker) forks every
//     schedule from it. The build stops at the last rung — the reference
//     trace the caller already holds is the base trace;
//   - a detected plan as base: rungs are captured mid-plan, after the
//     perturbed prefix has played out. Minimization probes and the explain
//     pass's instrumented re-execution are variants of that plan and share
//     most of its prefix by construction.
//
// Rung placement is a hint (rungSchedule): soundness is decided per fork.
//
// Divergence rule, proven per (rung, Q) pair:
//
//   - the divergence bound d is the earliest effect of any sub-plan in the
//     symmetric difference of the base's and Q's sub-plan multisets,
//     evaluated against BOTH the unperturbed reference trace and the base
//     run's trace (a perturbation can move a mined delivery). An
//     occurrence-counted sub-plan's effect is the send time of the
//     delivery it acts on (core.EarliestEffect), not its first match: the
//     fork resumes its counter at the count the rung's trace prefix
//     records (core.ApplyResumed), so a shared one does not bound d at
//     all;
//   - a rung qualifies iff its capture instant is at or before d. A
//     sub-plan with an unbounded effect time disqualifies the tree for Q,
//     and so does an occurrence-counted sub-plan when the base trace
//     cannot vouch for a count (countsExact).
//
// The resumed count is exact for three reasons: a rung is captured only at
// a quiescent instant, so no push is in flight; a delayed push is in
// flight until it lands, so no rung splits it; and on a base that lost no
// push, every push the send-side interceptor or an arrival gate counted
// before the rung is a recorded delivery, once (countsExact).
//
// Guards at fork time — each a counted fallback cause, never a silently
// different execution:
//
//   - strict_past: the plan would act inside the checkpointed prefix — with
//     a plan-free base, a plan timer landing before the rung (with a plan
//     base such timers are the shared perturbations and burn their
//     sequence numbers by design); with any base, an occurrence-counted
//     sub-plan the base does not share whose resumed count has already
//     reached its occurrence;
//   - restore_error: the snapshot failed to restore, InstallPending
//     rejected an event, or anything in the fork panicked;
//   - watchdog: the fork exhausted the per-call event budget short of the
//     horizon; the full replay then produces the canonical Hung record.
//
// A fork replicates the full replay's sequence-number allocation exactly:
// the kernel is rewound to the post-Build counter, Q is applied and the
// workload replayed in rehydration mode (actions before the rung burn
// their numbers), pending events are re-installed shifted by the
// difference between Q's and the base's plan bands, and the counter is
// fast-forwarded to the rung's counter plus the same shift. Whatever
// fails a check falls back to runGuarded, whose records are canonical, so
// snapshot-on and snapshot-off campaigns emit byte-identical artifacts.
// Building a tree is infrastructure, not an execution: it is not counted
// and leaves no trace in any artifact.

// maxCheckpoints caps the rungs of one tree; more cost capture time and
// memory for diminishing prefix savings.
const maxCheckpoints = 12

// captureSlideAttempts bounds how far (in 1ms steps) a capture slides past
// its candidate instant looking for quiescence before abandoning it.
const captureSlideAttempts = 25

// captureMargin is how far before a hinted instant a rung aims its
// capture. Hints sit AT mined moments (effect times — the very delivery
// an occurrence-counted plan acts on — and choice-point sends), which are
// exactly the busy instants where capture must slide forward, often past
// the instant itself, leaving the rung useless for the very plans that put
// it there. The margin exceeds the longest slide (captureSlideAttempts
// 1 ms steps), so a rung that is captured at all lands before its hint.
const captureMargin = 30 * sim.Millisecond

// fallbackCause classifies why a fork fell back to full replay. Only
// diagnosable causes are counted in Stats.SnapshotFallbacks; a plan with
// no qualifying rung (effect before the first rung, an unbounded effect
// time, an untrusted occurrence count) is routine prefix economics.
type fallbackCause uint8

const (
	fallbackNone fallbackCause = iota
	fallbackStrictPast
	fallbackRestoreError
	fallbackWatchdog
)

// rung is one checkpoint of the tree: a cluster snapshot plus the base
// run's trace prefix at the capture instant.
type rung struct {
	at    sim.Time
	snap  *infra.Snapshot
	trace *trace.Trace
}

// planTree is the per-(target, seed, base plan) fork substrate. It is
// immutable once built and shared read-only by the engine's workers.
type planTree struct {
	base     core.Plan
	baseKeys map[string]subCount
	// planFree marks a NopPlan base: the base run is the reference run, so
	// baseTrace is ref itself, baseExec is not captured, and plan timers
	// landing before the rung are strict-past violations.
	planFree   bool
	ref        *trace.Trace
	baseTrace  *trace.Trace
	baseDrops  int // watch pushes the base run lost in flight
	baseDups   int // watch pushes the base run delivered twice
	baseExec   core.Execution
	buildSeq   uint64   // kernel sequence counter right after Build
	buildSteps uint64   // kernel step counter right after Build
	buildEnd   sim.Time // virtual clock right after Build
	horizon    sim.Duration
	shiftBase  uint64 // sequence numbers the base plan's Apply allocated
	rungs      []rung // ascending capture time
}

// subCount is one entry of a sub-plan multiset: a representative plan and
// its multiplicity.
type subCount struct {
	plan  core.Plan
	count int
}

// buildPlanTree executes base once from t=0, capturing a rung at the build
// boundary and captureMargin before (a quantile sample of) the hinted
// instants. Returns nil when no rung could be captured — the caller then
// runs full replays, exactly as with snapshotting off.
func buildPlanTree(t core.Target, base core.Plan, seed int64, ref *trace.Trace, hints []sim.Time) (pt *planTree) {
	defer func() {
		if recover() != nil {
			pt = nil
		}
	}()
	c := t.Build(seed)
	k := c.World.Kernel()
	_, planFree := base.(core.NopPlan)
	pt = &planTree{
		base:       base,
		baseKeys:   subplanMultiset(base),
		planFree:   planFree,
		ref:        ref,
		buildSeq:   k.Seq(),
		buildSteps: k.Steps(),
		buildEnd:   k.Now(),
		horizon:    t.Horizon,
	}
	rec := trace.NewRecorder()
	rec.Attach(c.World.Network(), c.Store.Store())
	// Tag the plan band and the workload's own timers so they are
	// identifiable in rung snapshots: forks skip them on restore and
	// recreate them via Q.Apply and workload rehydration. Nested timers a
	// plan action schedules at fire time stay untagged — a rung whose
	// capture instant has one pending simply fails to capture.
	ptag := sim.EventTag{Owner: "plan", Kind: "action"}
	k.SetDefaultTag(&ptag)
	base.Apply(c)
	pt.shiftBase = k.Seq() - pt.buildSeq
	wtag := sim.EventTag{Owner: "workload", Kind: "action"}
	k.SetDefaultTag(&wtag)
	t.Workload(c)
	k.SetDefaultTag(nil)

	end := pt.buildEnd.Add(t.Horizon)
	for _, cand := range rungSchedule(pt.buildEnd, end, hints) {
		if cand < k.Now() {
			continue // a previous capture slid past this candidate
		}
		k.Run(cand)
		snap, ok := captureWithSlide(c, k, end)
		if !ok {
			continue
		}
		pt.rungs = append(pt.rungs, rung{at: k.Now(), snap: snap, trace: rec.T.Fork()})
	}
	if len(pt.rungs) == 0 {
		return nil
	}
	if planFree {
		pt.baseTrace = ref
	} else {
		// Finish the base run: the complete perturbed trace backs the
		// divergence rule, and the base execution doubles as the
		// minimizer's initial reproduction probe.
		k.Run(end)
		pt.baseTrace = rec.T
		pt.baseExec = core.Execution{
			Violations: c.Violations(),
			Detected:   c.Oracles.Violated(t.Bug),
		}
	}
	for _, n := range pt.baseTrace.DroppedPushes {
		pt.baseDrops += n
	}
	for _, n := range pt.baseTrace.DuplicatePushes {
		pt.baseDups += n
	}
	return pt
}

// rungSchedule converts hinted instants — a multiset: the earliest-effect
// times of the plans the tree will serve (for an occurrence-counted plan,
// the send time of the delivery it acts on), or the explorer's
// choice-point send times — into capture candidates: the build boundary (every plan
// whose effect follows warmup can fork from it) plus up to
// maxCheckpoints-1 mass-weighted quantiles of the hints inside
// (buildEnd, end), each shifted captureMargin early. Quantiles are taken
// over the multiset, NOT the distinct times, so when many plans share one
// mined moment a rung lands exactly there and the bulk of the campaign
// forks with a minimal residual replay; a list of at most maxCheckpoints-1
// hints is kept whole.
func rungSchedule(buildEnd, end sim.Time, hints []sim.Time) []sim.Time {
	var in []sim.Time
	for _, at := range hints {
		if at > buildEnd && at < end {
			in = append(in, at)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := []sim.Time{buildEnd}
	if len(in) == 0 {
		return out
	}
	const quota = maxCheckpoints - 1
	for i := 0; i < quota; i++ {
		cand := in[i*(len(in)-1)/(quota-1)].Add(-captureMargin)
		if cand > buildEnd && cand != out[len(out)-1] {
			out = append(out, cand)
		}
	}
	return out
}

// effectTimes lists the bounded earliest-effect times of plans against ref
// — the rung placement hint for a tree that will serve those plans.
func effectTimes(plans []core.Plan, ref *trace.Trace) []sim.Time {
	out := make([]sim.Time, 0, len(plans))
	for _, p := range plans {
		if eff, ok := core.EarliestEffect(p, ref); ok {
			out = append(out, eff)
		}
	}
	return out
}

// captureWithSlide captures the cluster at the current instant, advancing
// virtual time in 1ms steps while the instant is not quiescent (an untagged
// timer pending, an RPC call in flight).
func captureWithSlide(c *infra.Cluster, k *sim.Kernel, end sim.Time) (*infra.Snapshot, bool) {
	for attempt := 0; attempt < captureSlideAttempts; attempt++ {
		if snap, ok := c.Capture(); ok {
			return snap, true
		}
		if k.Now() >= end {
			return nil, false
		}
		k.RunFor(sim.Millisecond)
	}
	return nil, false
}

// subPlans flattens a plan into its leaf sub-plans, in order.
func subPlans(p core.Plan) []core.Plan {
	sp, ok := p.(core.SequencePlan)
	if !ok {
		return []core.Plan{p}
	}
	var out []core.Plan
	for _, sub := range sp.Plans {
		out = append(out, subPlans(sub)...)
	}
	return out
}

// subplanMultiset is a plan's sub-plan multiset, keyed by ID+Describe (IDs
// alone omit some secondary parameters).
func subplanMultiset(p core.Plan) map[string]subCount {
	out := make(map[string]subCount)
	for _, q := range subPlans(p) {
		key := q.ID() + "\x00" + q.Describe()
		sc := out[key]
		sc.plan = q
		sc.count++
		out[key] = sc
	}
	return out
}

// divergence returns the latest instant up to which an execution of q is
// provably identical to the base run, or ok=false when no such bound can
// be established.
func (pt *planTree) divergence(q core.Plan) (sim.Time, bool) {
	qKeys := subplanMultiset(q)
	d := sim.Time(math.MaxInt64)
	consider := func(sub core.Plan) bool {
		eff, ok := core.EarliestEffect(sub, pt.ref)
		if !ok {
			return false
		}
		if !pt.planFree {
			effBase, ok := core.EarliestEffect(sub, pt.baseTrace)
			if !ok {
				return false
			}
			if effBase < eff {
				eff = effBase
			}
		}
		if eff < d {
			d = eff
		}
		return true
	}
	keys := make([]string, 0, len(pt.baseKeys)+len(qKeys))
	for k := range pt.baseKeys {
		keys = append(keys, k)
	}
	for k := range qKeys {
		if _, dup := pt.baseKeys[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, inQ := pt.baseKeys[k], qKeys[k]
		sub := b.plan
		if sub == nil {
			sub = inQ.plan
		}
		if _, occ := core.Occurrence(sub); occ && !pt.countsExact() {
			return 0, false
		}
		if b.count != inQ.count && !consider(sub) {
			return 0, false
		}
	}
	return d, true
}

// countsExact reports whether the base trace's deliveries are exactly what
// an occurrence counter counted: the base lost no watch push (a dropped
// push is counted but never recorded) and duplicated none (recorded twice,
// counted once), and no push was in flight at the Build boundary, where
// counting begins (the send-side interceptor never sees such a push; the
// boundary rung is captured there only if it was quiescent). Otherwise
// neither an occurrence bound nor a resumed count is trustworthy.
func (pt *planTree) countsExact() bool {
	return pt.baseDrops+pt.baseDups == 0 && pt.rungs[0].at == pt.buildEnd
}

// forkRung returns the latest rung at or before q's divergence bound, or
// nil when none qualifies.
func (pt *planTree) forkRung(q core.Plan) *rung {
	d, ok := pt.divergence(q)
	if !ok {
		return nil
	}
	i := sort.Search(len(pt.rungs), func(i int) bool { return pt.rungs[i].at > d })
	if i == 0 {
		return nil
	}
	return &pt.rungs[i-1]
}

// run executes q by forking from the deepest eligible rung under the given
// event budget (0 = DefaultEventBudget). With instrument set the returned
// trace is the full trace from t=0 (rung prefix + recorded suffix), as an
// instrumented full replay would produce. ok=false means the caller must
// fall back to runGuarded; cause classifies diagnosable failures
// (fallbackNone: no eligible rung — routine).
func (pt *planTree) run(t core.Target, q core.Plan, instrument bool, budget uint64) (core.Execution, *trace.Trace, bool, fallbackCause) {
	if !pt.planFree && !instrument && q.ID() == pt.base.ID() && q.Describe() == pt.base.Describe() {
		return pt.baseExec, nil, true, fallbackNone
	}
	rg := pt.forkRung(q)
	if rg == nil {
		return core.Execution{}, nil, false, fallbackNone
	}
	return pt.forkFrom(rg, t, q, instrument, budget)
}

// actedBefore reports whether an occurrence-counted sub-plan of q that the
// base does not share has reached its occurrence by rung rg: forked, q
// would skip that action silently. A shared one that has acted did so in
// the base run too, inside the prefix.
func (pt *planTree) actedBefore(rg *rung, q core.Plan) bool {
	for key, sc := range subplanMultiset(q) {
		n, ok := core.Occurrence(sc.plan)
		if ok && pt.baseKeys[key].count != sc.count && core.Seen(sc.plan, rg.trace) >= n {
			return true
		}
	}
	return false
}

// forkFrom executes q from rung rg. The caller vouches for eligibility
// (run does, via forkRung); everything else is guarded here.
func (pt *planTree) forkFrom(rg *rung, t core.Target, q core.Plan, instrument bool, budget uint64) (exec core.Execution, tr *trace.Trace, ok bool, cause fallbackCause) {
	defer func() {
		if recover() != nil {
			exec, tr, ok, cause = core.Execution{}, nil, false, fallbackRestoreError
		}
	}()
	if pt.actedBefore(rg, q) {
		return core.Execution{}, nil, false, fallbackStrictPast
	}
	c2, err := rg.snap.NewCluster()
	if err != nil {
		return core.Execution{}, nil, false, fallbackRestoreError
	}
	k := c2.World.Kernel()
	var rec *trace.Recorder
	if instrument {
		rec = trace.NewRecorderFor(rg.trace.Fork())
		rec.Attach(c2.World.Network(), c2.Store.Store())
	}
	// Q's plan band replays directly after the Build boundary, then the
	// workload, both in rehydration mode: timers that fired inside the
	// prefix burn their numbers, later ones schedule for real. With a
	// plan-free base no plan timer may land inside the prefix. Occurrence
	// counters resume at the rung's counts.
	k.SetSeq(pt.buildSeq)
	k.BeginRehydrate(rg.snap.Kernel.Now)
	k.SetStrictPast(pt.planFree)
	core.ApplyResumed(q, c2, rg.trace)
	k.SetStrictPast(false)
	if k.StrictViolation() != "" {
		return core.Execution{}, nil, false, fallbackStrictPast
	}
	shiftQ := k.Seq() - pt.buildSeq
	t.Workload(c2)
	k.EndRehydrate()
	// Pending component events return with their original tie-break order,
	// shifted by the DIFFERENCE between Q's and the base plan's allocation
	// bands — signed, since a minimization candidate allocates less than
	// its base.
	delta := int64(shiftQ) - int64(pt.shiftBase)
	if err := c2.InstallPending(rg.snap.Kernel.Pending, pt.buildSeq, delta); err != nil {
		return core.Execution{}, nil, false, fallbackRestoreError
	}
	k.SetSeq(uint64(int64(rg.snap.Kernel.Seq) + delta))
	if runBudgeted(k, pt.buildSteps, budget, pt.buildEnd.Add(pt.horizon)) {
		// Livelocked: discard the fork so the full replay produces the
		// canonical Hung record.
		return core.Execution{}, nil, false, fallbackWatchdog
	}
	exec = core.Execution{
		Violations: c2.Violations(),
		Detected:   c2.Oracles.Violated(t.Bug),
	}
	if instrument {
		tr = rec.T
	}
	return exec, tr, true, fallbackNone
}
