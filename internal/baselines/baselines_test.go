package baselines_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRandomDeterministicPerSeed(t *testing.T) {
	target := workload.Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	a := baselines.Random{Seed: 3, N: 30}.Plans(target, ref)
	b := baselines.Random{Seed: 3, N: 30}.Plans(target, ref)
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("plan %d differs: %s vs %s", i, a[i].ID(), b[i].ID())
		}
	}
	c := baselines.Random{Seed: 4, N: 30}.Plans(target, ref)
	same := true
	for i := range a {
		if i < len(c) && a[i].ID() != c[i].ID() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical random plans")
	}
}

func TestCrashTunerTargetsMembershipObservers(t *testing.T) {
	target := workload.Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	plans := baselines.CrashTuner{}.Plans(target, ref)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	restartable := map[sim.NodeID]bool{}
	for _, id := range target.Topology.Restartable {
		restartable[id] = true
	}
	for _, p := range plans {
		cp, ok := p.(core.CrashPlan)
		if !ok {
			t.Fatalf("unexpected plan type %T", p)
		}
		if !restartable[cp.Component] {
			t.Fatalf("crash plan targets non-restartable %s", cp.Component)
		}
	}
}

func TestCoFIPlansAreWindowedPartitions(t *testing.T) {
	target := workload.TargetCass398()
	ref, _ := core.ReferenceSeed(target, 1)
	plans := baselines.CoFI{}.Plans(target, ref)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range plans {
		switch pp := p.(type) {
		case core.PartitionPlan:
			if pp.Until <= pp.From {
				t.Fatalf("unbounded partition: %+v", pp)
			}
		case core.StalenessPlan:
			if pp.Until <= pp.From {
				t.Fatalf("unbounded freeze: %+v", pp)
			}
		default:
			t.Fatalf("unexpected plan type %T", p)
		}
	}
}

func TestBaselinePlansExecuteWithoutDetectingCleanTargets(t *testing.T) {
	// Running a handful of baseline plans must not crash the harness; the
	// detection outcome is exercised by the E5 benchmark.
	target := workload.Target59848()
	ref, _ := core.ReferenceSeed(target, 1)
	for _, s := range []core.Strategy{
		baselines.Random{Seed: 1, N: 3},
		baselines.CrashTuner{},
		baselines.CoFI{},
	} {
		plans := s.Plans(target, ref)
		limit := 3
		if len(plans) < limit {
			limit = len(plans)
		}
		for _, p := range plans[:limit] {
			exec := core.RunPlanSeed(target, p, 1)
			_ = exec
		}
	}
}
