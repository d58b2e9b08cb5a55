package campaign

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Forker is the exported face of the fork substrate (tree.go) for the
// systematic explorer (internal/explore). The explorer probes many
// schedules that share a common prefix — the unperturbed run up to the
// exploration window — so it builds one tree over the plan-free base (the
// reference run itself) with rungs requested at its choice-point send
// times, then executes each candidate schedule by forking from the deepest
// eligible rung — the last one before the schedule's earliest decision,
// since each drop/delay gate resumes its arrival count at the rung.
// Everything that fails the tree's divergence rule or fork
// guards falls back to a full instrumented replay, whose result is
// canonical: explorer output is identical with or without snapshots.
type Forker struct {
	target core.Target
	seed   int64
	pt     *planTree

	// Forks and Replays count how executions were served; the explorer
	// reports them but excludes them from certificates (they are a
	// host-side performance detail, not part of the explored semantics).
	Forks   int
	Replays int
}

// NewForker builds the fork substrate for (target, seed). candidates are
// the virtual times the explorer wants checkpoints near — typically the
// send times of its choice-point deliveries in the reference trace; each
// rung is captured captureMargin earlier. A target that cannot snapshot
// still yields a usable Forker: every Run is then a full replay.
func NewForker(t core.Target, seed int64, ref *trace.Trace, candidates []sim.Time) *Forker {
	return &Forker{target: t, seed: seed, pt: buildPlanTree(t, core.NopPlan{}, seed, ref, candidates)}
}

// Run executes plan q against a fresh logical instance of the target,
// forking from the deepest eligible checkpoint when one qualifies. The
// returned trace is always the complete perturbed trace from t=0 (rung
// prefix + recorded suffix on the fork path), as a full instrumented
// replay would produce; it is nil only when the replay itself failed or
// hung (the Execution says which).
func (f *Forker) Run(q core.Plan) (core.Execution, *trace.Trace) {
	if f.pt != nil {
		if exec, tr, ok, _ := f.pt.run(f.target, q, true, 0); ok {
			f.Forks++
			return exec, tr
		}
	}
	f.Replays++
	return runGuarded(f.target, q, f.seed, true, 0)
}

// Runner adapts the forker to the minimizer's PlanRunner contract
// (core.MinimizeSeedRun): minimization probes reuse the same tree.
func (f *Forker) Runner() core.PlanRunner {
	return func(_ core.Target, q core.Plan, _ int64) core.Execution {
		exec, _ := f.Run(q)
		return exec
	}
}
