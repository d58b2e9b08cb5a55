package core

import (
	"repro/internal/sim"
)

// PlanRunner executes one candidate plan under a fixed (target, seed) and
// returns the resulting execution. RunPlanSeed is the canonical full-replay
// runner; callers with a faster exact-equivalent path (the campaign
// engine's checkpoint-tree forks) substitute their own. A PlanRunner MUST
// be execution-equivalent to RunPlanSeed — minimization correctness
// depends on each probe reproducing the replay the campaign saw.
type PlanRunner func(t Target, p Plan, seed int64) Execution

// MinimizeSeedRun shrinks a detecting plan to a minimal perturbation that
// still triggers the target bug — the step between "a campaign found
// something" and "a developer can read the root cause". Determinism makes
// this exact: re-running a candidate plan either reproduces the violation
// or it doesn't; there is no flakiness to average over.
//
// Two reductions are applied:
//
//  1. For composite plans (the random baseline emits 1–3 faults per
//     execution), greedy delta debugging removes sub-plans that are not
//     needed for detection.
//  2. Flaky-link and compaction-pressure plans shed the degradation axes
//     and the victim stall that detection does not need.
//
// It returns the reduced plan and the number of verification executions
// spent. Every candidate is verified with run (RunPlanSeed, or an exact
// equivalent) under seed — the seed the plan was discovered under: a
// perturbation whose coordinates (occurrence counts, freeze times) were
// mined from a seed-s reference trace generally only reproduces under
// seed s.
func MinimizeSeedRun(t Target, p Plan, seed int64, run PlanRunner) (Plan, int) {
	executions := 0
	detects := func(candidate Plan) bool {
		executions++
		return run(t, candidate, seed).Detected
	}
	if !detects(p) {
		// Not reproducible (should not happen for a plan a campaign just
		// reported under this seed); return it unchanged.
		return p, executions
	}

	switch sp := p.(type) {
	case SequencePlan:
		reduced := minimizeSequence(sp, detects)
		if len(reduced.Plans) == 1 {
			return reduced.Plans[0], executions
		}
		return reduced, executions
	case FlakyLinkPlan:
		return minimizeFlaky(sp, detects), executions
	case CompactionPressurePlan:
		return minimizeCompaction(sp, detects), executions
	}
	return p, executions
}

// minimizeFlaky greedily zeroes degradation axes of a flaky-link plan
// (reorder, then duplication, then drop) while the remainder still detects,
// isolating which kind of link misbehaviour actually triggers the bug.
func minimizeFlaky(p FlakyLinkPlan, detects func(Plan) bool) FlakyLinkPlan {
	current := p
	axes := []func(*FlakyLinkPlan){
		func(c *FlakyLinkPlan) { c.ReorderPercent = 0 },
		func(c *FlakyLinkPlan) { c.DupPercent = 0 },
		func(c *FlakyLinkPlan) { c.DropPercent = 0 },
	}
	for _, zero := range axes {
		candidate := current
		zero(&candidate)
		if candidate.DropPercent == 0 && candidate.DupPercent == 0 && candidate.ReorderPercent == 0 {
			continue // must keep at least one axis
		}
		if candidate != current && detects(candidate) {
			current = candidate
		}
	}
	return current
}

// minimizeCompaction tries to drop the victim stall from a compaction plan:
// if the retain-limit squeeze alone still detects, the report should not
// implicate the apiserver pulse.
func minimizeCompaction(p CompactionPressurePlan, detects func(Plan) bool) CompactionPressurePlan {
	if p.Victim == "" {
		return p
	}
	candidate := p
	candidate.Victim = ""
	candidate.PulseWidth = 0
	if detects(candidate) {
		return candidate
	}
	return p
}

// minimizeSequence greedily drops sub-plans while the remainder still
// detects. Greedy one-at-a-time removal is sufficient here because plan
// lists are short (≤ 3 for the random baseline); classic ddmin would be
// overkill.
func minimizeSequence(seq SequencePlan, detects func(Plan) bool) SequencePlan {
	current := append([]Plan(nil), seq.Plans...)
	for i := 0; i < len(current); {
		if len(current) == 1 {
			break
		}
		candidate := make([]Plan, 0, len(current)-1)
		candidate = append(candidate, current[:i]...)
		candidate = append(candidate, current[i+1:]...)
		if detects(SequencePlan{Name: seq.Name + "-min", Plans: candidate}) {
			current = candidate // sub-plan i was unnecessary
			continue
		}
		i++
	}
	return SequencePlan{Name: seq.Name + "-min", Plans: current}
}

// NarrowWindowSeedRun binary-searches the latest possible start of a
// staleness window that still detects under the given seed, tightening
// "freeze from t onwards" plans to the decisive instant (the freeze must
// start before the event whose observation it suppresses). It returns the
// narrowed plan and the executions spent.
func NarrowWindowSeedRun(t Target, p StalenessPlan, seed int64, run PlanRunner) (StalenessPlan, int) {
	return narrowFrom(t, p, seed, run, p.From, p.Until,
		func(q StalenessPlan, from sim.Time) StalenessPlan { q.From = from; return q })
}

// NarrowFlakyWindowSeedRun is the link-quality analogue of
// NarrowWindowSeedRun. Each probe is fully deterministic (the degraded
// schedule is a pure function of plan + seed), so the search is exact even
// though the degradation itself is probabilistic.
func NarrowFlakyWindowSeedRun(t Target, p FlakyLinkPlan, seed int64, run PlanRunner) (FlakyLinkPlan, int) {
	return narrowFrom(t, p, seed, run, p.From, p.Until,
		func(q FlakyLinkPlan, from sim.Time) FlakyLinkPlan { q.From = from; return q })
}

// narrowFrom is the one bisect both window narrowers share: the latest
// start in [from, until) (until 0 = the horizon) at which p, rewritten by
// withFrom, still detects, to 50 ms.
func narrowFrom[P Plan](t Target, p P, seed int64, run PlanRunner, from, until sim.Time, withFrom func(P, sim.Time) P) (P, int) {
	executions := 0
	detects := func(candidate P) bool {
		executions++
		return run(t, candidate, seed).Detected
	}
	if !detects(p) {
		return p, executions
	}
	lo, hi := from, until
	if hi == 0 {
		hi = sim.Time(t.Horizon)
	}
	best := p
	for hi-lo > sim.Time(50*sim.Millisecond) {
		mid := lo + (hi-lo)/2
		candidate := withFrom(p, mid)
		if detects(candidate) {
			best = candidate
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, executions
}
