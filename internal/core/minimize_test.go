package core

import (
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// schedTarget is the 56261 setup: a gap on the node deletion to the
// scheduler livelocks placement.
func schedTarget() Target {
	return Target{
		Name: "sched-gap",
		Bug:  oracle.NameSchedulerProgress,
		Build: func(seed int64) *infra.Cluster {
			opts := infra.DefaultOptions()
			opts.Seed = seed
			opts.Nodes = []string{"n1", "n2"}
			opts.EnableVolumeController = false
			return infra.New(opts)
		},
		Workload: func(c *infra.Cluster) {
			c.World.Kernel().At(sim.Time(sim.Second), func() { c.Admin.DeleteNode("n1", nil) })
			c.World.Kernel().At(sim.Time(1500*sim.Millisecond), func() { c.Admin.CreatePod("job", "", "v1", nil) })
		},
		Horizon: 7 * sim.Second,
		Topology: Topology{
			APIServers:  []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{"scheduler"},
		},
	}
}

func detectingGap() GapPlan {
	return GapPlan{Victim: "scheduler", Kind: cluster.KindNode, Name: "n1", Type: apiserver.Deleted, Occurrence: 1}
}

func TestMinimizeDropsUnnecessarySubPlans(t *testing.T) {
	target := schedTarget()
	// A noisy composite: the gap that matters plus two irrelevant faults.
	noisy := SequencePlan{Name: "noisy", Plans: []Plan{
		CrashPlan{Component: "kubelet-n2", At: sim.Time(3 * sim.Second), RestartDelay: 100 * sim.Millisecond},
		detectingGap(),
		PartitionPlan{A: "kubelet-n2", B: infra.APIServerID(1), From: sim.Time(2 * sim.Second), Until: sim.Time(2500 * sim.Millisecond)},
	}}
	if !RunPlanSeed(target, noisy, 1).Detected {
		t.Fatal("noisy plan does not detect; test setup broken")
	}
	minimal, execs := MinimizeSeedRun(target, noisy, 1, RunPlanSeed)
	if execs == 0 {
		t.Fatal("no verification executions recorded")
	}
	gap, ok := minimal.(GapPlan)
	if !ok {
		t.Fatalf("minimal plan = %T (%s), want the bare GapPlan", minimal, minimal.Describe())
	}
	if gap != detectingGap() {
		t.Fatalf("minimal gap = %+v", gap)
	}
	if !RunPlanSeed(target, minimal, 1).Detected {
		t.Fatal("minimized plan no longer detects")
	}
}

func TestMinimizeKeepsNecessarySubPlans(t *testing.T) {
	target := schedTarget()
	only := SequencePlan{Name: "solo", Plans: []Plan{detectingGap()}}
	minimal, _ := MinimizeSeedRun(target, only, 1, RunPlanSeed)
	if !RunPlanSeed(target, minimal, 1).Detected {
		t.Fatal("minimized plan no longer detects")
	}
}

// seedGatedTarget is a synthetic target whose bug oracle only ever fires
// in worlds built with the given seed — a stand-in for real targets whose
// detecting plans carry coordinates (occurrence counts, freeze instants)
// mined from one specific seed's reference trace.
func seedGatedTarget(bugSeed int64) Target {
	return Target{
		Name: "seed-gated",
		Bug:  "SeedGated",
		Build: func(seed int64) *infra.Cluster {
			opts := infra.DefaultOptions()
			opts.Seed = seed
			opts.Nodes = []string{"n1"}
			opts.EnableVolumeController = false
			c := infra.New(opts)
			if seed == bugSeed {
				c.Oracles.Add(oracle.Func{OracleName: "SeedGated", CheckFunc: func(now sim.Time) *oracle.Violation {
					if now < sim.Time(2*sim.Second) {
						return nil
					}
					return &oracle.Violation{Oracle: "SeedGated", Detail: "seed-gated bug fired"}
				}})
			}
			return c
		},
		Workload: func(c *infra.Cluster) {},
		Horizon:  3 * sim.Second,
	}
}

// TestMinimizeSeedVerifiesUnderFoundSeed regression-tests the headline
// bugfix: minimization must verify every candidate under the seed the plan
// was discovered with. Verifying under the default seed (the old Minimize
// behaviour) cannot even reproduce a seed-7 detection, so the plan came
// back unminimized.
func TestMinimizeSeedVerifiesUnderFoundSeed(t *testing.T) {
	target := seedGatedTarget(7)
	noisy := SequencePlan{Name: "noisy", Plans: []Plan{
		CrashPlan{Component: "kubelet-n1", At: sim.Time(1 * sim.Second), RestartDelay: 100 * sim.Millisecond},
		PartitionPlan{A: "kubelet-n1", B: infra.APIServerID(0), From: sim.Time(1 * sim.Second), Until: sim.Time(1500 * sim.Millisecond)},
	}}
	if !RunPlanSeed(target, noisy, 7).Detected {
		t.Fatal("noisy plan does not detect under seed 7; test setup broken")
	}

	// Old behaviour: seed-1 verification fails the reproduction check and
	// bails out with the plan untouched.
	got, execs := MinimizeSeedRun(target, noisy, 1, RunPlanSeed)
	if execs != 1 {
		t.Fatalf("Minimize under the wrong seed spent %d executions, want 1 (failed repro check)", execs)
	}
	if got.ID() != noisy.ID() {
		t.Fatalf("Minimize under the wrong seed altered the plan: %s", got.ID())
	}

	// Seed-correct minimization reduces the sequence and the result still
	// detects under the seed it was found with.
	minimal, execs := MinimizeSeedRun(target, noisy, 7, RunPlanSeed)
	if execs < 2 {
		t.Fatalf("MinimizeSeed spent %d executions, want repro check + removal probes", execs)
	}
	if _, isSeq := minimal.(SequencePlan); isSeq {
		t.Fatalf("minimal plan = %s, want a single sub-plan", minimal.Describe())
	}
	if !RunPlanSeed(target, minimal, 7).Detected {
		t.Fatal("minimized plan no longer detects under seed 7")
	}
}

// TestMinimizeSeedRoundTrip is the multi-seed round-trip on a real target:
// a noisy composite found under seed 7 minimizes to the bare gap and the
// minimal plan still reproduces under seed 7.
func TestMinimizeSeedRoundTrip(t *testing.T) {
	target := schedTarget()
	const seed = 7
	noisy := SequencePlan{Name: "noisy", Plans: []Plan{
		CrashPlan{Component: "kubelet-n2", At: sim.Time(3 * sim.Second), RestartDelay: 100 * sim.Millisecond},
		detectingGap(),
		PartitionPlan{A: "kubelet-n2", B: infra.APIServerID(1), From: sim.Time(2 * sim.Second), Until: sim.Time(2500 * sim.Millisecond)},
	}}
	if !RunPlanSeed(target, noisy, seed).Detected {
		t.Fatal("noisy plan does not detect under seed 7; test setup broken")
	}
	minimal, execs := MinimizeSeedRun(target, noisy, seed, RunPlanSeed)
	if execs == 0 {
		t.Fatal("no verification executions recorded")
	}
	gap, ok := minimal.(GapPlan)
	if !ok {
		t.Fatalf("minimal plan = %T (%s), want the bare GapPlan", minimal, minimal.Describe())
	}
	if gap != detectingGap() {
		t.Fatalf("minimal gap = %+v", gap)
	}
	if !RunPlanSeed(target, minimal, seed).Detected {
		t.Fatal("minimized plan no longer detects under seed 7")
	}
}

func TestMinimizeNonReproducingPlanUnchanged(t *testing.T) {
	target := schedTarget()
	dud := SequencePlan{Name: "dud", Plans: []Plan{
		CrashPlan{Component: "kubelet-n2", At: sim.Time(3 * sim.Second), RestartDelay: 100 * sim.Millisecond},
	}}
	got, execs := MinimizeSeedRun(target, dud, 1, RunPlanSeed)
	if execs != 1 {
		t.Fatalf("executions = %d, want 1 (just the reproduction check)", execs)
	}
	if got.ID() != dud.ID() {
		t.Fatalf("non-reproducing plan was altered: %s", got.ID())
	}
}

// TestNarrowWindowsBisectToTheDecisiveStart drives both window narrowers
// with a synthetic runner that detects exactly when the window opens no
// later than a cut-off: each must land within the 50 ms resolution of the
// cut-off, from below, and leave a non-reproducing plan alone after one
// probe.
func TestNarrowWindowsBisectToTheDecisiveStart(t *testing.T) {
	target := Target{Horizon: 8 * sim.Second}
	cutoff := sim.Time(3210 * sim.Millisecond)
	step := sim.Time(50 * sim.Millisecond)
	runner := func(_ Target, p Plan, _ int64) Execution {
		switch q := p.(type) {
		case StalenessPlan:
			return Execution{Detected: q.From <= cutoff}
		case FlakyLinkPlan:
			return Execution{Detected: q.From <= cutoff}
		}
		return Execution{}
	}
	// Until zero: the search runs to the horizon.
	stale, execs := NarrowWindowSeedRun(target, StalenessPlan{Victim: "api", From: sim.Time(sim.Second)}, 1, runner)
	if stale.From > cutoff || cutoff-stale.From > step || stale.Victim != "api" {
		t.Fatalf("staleness window narrowed to %s, want within %s below %s", stale.From, step, cutoff)
	}
	if execs < 2 || execs > 10 {
		t.Fatalf("staleness bisect spent %d executions", execs)
	}
	flaky, _ := NarrowFlakyWindowSeedRun(target,
		FlakyLinkPlan{A: "a", B: "b", DropPercent: 30, From: sim.Time(sim.Second), Until: sim.Time(6 * sim.Second)}, 1, runner)
	if flaky.From > cutoff || cutoff-flaky.From > step || flaky.DropPercent != 30 || flaky.Until != sim.Time(6*sim.Second) {
		t.Fatalf("flaky window narrowed to %+v, want From within %s below %s and nothing else changed", flaky, step, cutoff)
	}
	late := StalenessPlan{Victim: "api", From: cutoff + step}
	if got, execs := NarrowWindowSeedRun(target, late, 1, runner); got != late || execs != 1 {
		t.Fatalf("non-reproducing plan: got %+v after %d executions, want it unchanged after 1", got, execs)
	}
}
