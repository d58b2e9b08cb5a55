package workload

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestReferenceRunsAreClean verifies that no target bug manifests without
// perturbation — the precondition for campaigns to be meaningful.
func TestReferenceRunsAreClean(t *testing.T) {
	for _, target := range AllTargets() {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			_, violations := core.ReferenceSeed(target, 1)
			for _, v := range violations {
				t.Errorf("reference run violated %s: %s", v.Oracle, v.Detail)
			}
		})
	}
}

// TestToolDetectsAllFiveBugs is the repository's headline check: the
// partial-history planner reproduces both known Kubernetes bugs and detects
// all three cassandra-operator bugs (paper Section 7) — and the fixed
// component variants survive the exact perturbation that broke the stock
// build (the regression check a maintainer would run after landing a fix).
func TestToolDetectsAllFiveBugs(t *testing.T) {
	for _, target := range AllTargets() {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			ref, refViolations := core.ReferenceSeed(target, 1)
			if len(refViolations) != 0 {
				t.Fatalf("reference run dirty: %v", refViolations)
			}
			plans := core.NewPlanner().Plans(target, ref)
			var detecting core.Plan
			executions := 0
			for i, p := range plans {
				if i >= 600 {
					break
				}
				executions = i + 1
				if exec := core.RunPlanSeed(target, p, 1); exec.Detected {
					detecting = p
					break
				}
			}
			if detecting == nil {
				t.Fatalf("tool failed to detect %s within %d executions (plans: %d)",
					target.Name, executions, len(plans))
			}
			t.Logf("%s detected in %d/%d executions via %s",
				target.Name, executions, len(plans), detecting.Describe())

			// The fix must hold under the same perturbation.
			fixedExec := core.RunPlanSeed(Fixed(target), detecting, 1)
			if fixedExec.Detected {
				t.Fatalf("fixed variant still violates %s under %s",
					target.Bug, detecting.Describe())
			}
		})
	}
}

// TestBaselinesGeneratePlans sanity-checks baseline plan generation.
func TestBaselinesGeneratePlans(t *testing.T) {
	target := Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	for _, s := range []core.Strategy{
		baselines.Random{Seed: 7, N: 25},
		baselines.CrashTuner{},
		baselines.CoFI{},
	} {
		plans := s.Plans(target, ref)
		if len(plans) == 0 {
			t.Errorf("%s generated no plans", s.Name())
		}
		ids := map[string]bool{}
		for _, p := range plans {
			if ids[p.ID()] {
				t.Errorf("%s generated duplicate plan %s", s.Name(), p.ID())
			}
			ids[p.ID()] = true
		}
	}
}

// TestTopologyNamesProcessesThePlansCanReach: every ID a target's topology
// lists is a process of the world it builds, and every Resteerable one
// implements core.Resteerable. TimeTravelPlan.Apply skips a process that
// does not — silently, turning a whole plan family into crash-and-restart —
// and a component that takes its lifecycle from an embedded shell keeps the
// method only as long as it is the component the world registers.
func TestTopologyNamesProcessesThePlansCanReach(t *testing.T) {
	for _, tg := range append(AllTargets(), ScaleTargets()...) {
		w := tg.Build(1).World
		for _, list := range []struct {
			name string
			ids  []sim.NodeID
		}{{"APIServers", tg.Topology.APIServers}, {"Restartable", tg.Topology.Restartable}, {"Resteerable", tg.Topology.Resteerable}} {
			if len(list.ids) == 0 && list.name != "Resteerable" {
				t.Errorf("%s: Topology.%s is empty", tg.Name, list.name)
			}
			for _, id := range list.ids {
				p, ok := w.Process(id)
				if !ok {
					t.Errorf("%s: Topology.%s names %s, which is no process of the world", tg.Name, list.name, id)
				} else if _, steers := p.(core.Resteerable); list.name == "Resteerable" && !steers {
					t.Errorf("%s: Topology.Resteerable names %s, and %T has no SetRestartUpstream", tg.Name, id, p)
				}
			}
		}
	}
}
