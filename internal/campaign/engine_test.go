package campaign

import (
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// serialCampaign is the oracle the engine is cross-checked against: the
// paper's loop, spelled out — reference run, plans in strategy order, stop
// at the first detection or after maxExec plans. It shares only
// core.ReferenceSeed and core.RunPlanSeed with the engine.
func serialCampaign(t core.Target, s core.Strategy, maxExec int, seed int64) core.CampaignResult {
	res := core.CampaignResult{Target: t.Name, Strategy: s.Name(), PlansTotal: 1, Executions: 1}
	found := func(p core.Plan, violations []oracle.Violation) bool {
		for _, v := range violations {
			if v.Oracle == t.Bug {
				res.Detected, res.DetectingPlan, res.FirstViolation = true, p.Describe(), &v
				return true
			}
		}
		return false
	}
	ref, refViolations := core.ReferenceSeed(t, seed)
	if found(core.NopPlan{}, refViolations) {
		return res // the bug manifests without perturbation
	}
	plans := s.Plans(t, ref)
	res.PlansTotal = len(plans)
	for i, p := range plans {
		if maxExec > 0 && i >= maxExec {
			break
		}
		res.Executions = i + 2 // reference + plans 0..i
		if found(p, core.RunPlanSeed(t, p, seed).Violations) {
			break
		}
	}
	return res
}

// TestParallelMatchesSerial is the cross-check the package exists to
// honor: an unguided engine at any worker count produces a
// CampaignResult byte-identical to the serial loop — same detection, same
// first-detecting plan, same execution accounting.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name     string
		target   core.Target
		strategy core.Strategy
		maxExec  int
	}{
		// Fast detection: the planner finds 56261 on its first plan.
		{"planner-56261", workload.Target56261(), core.NewPlanner(), 40},
		// No detection: CrashTuner misses 56261 — the pool must drain
		// the whole bounded plan list and agree on the count.
		{"crashtuner-56261", workload.Target56261(), baselines.CrashTuner{}, 25},
		// Mid-list detection: random needs a couple dozen executions,
		// so workers genuinely race ahead of the detecting index.
		{"random-56261", workload.Target56261(), baselines.Random{Seed: 7, N: 150}, 150},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want := serialCampaign(tc.target, tc.strategy, tc.maxExec, 1)
			for _, workers := range []int{1, 2, 4} {
				eng := New(Config{Workers: workers, MaxExecutions: tc.maxExec})
				got := eng.Run(tc.target, tc.strategy)
				if !reflect.DeepEqual(got.Campaign, want) {
					t.Fatalf("workers=%d: parallel result diverged from serial\n got: %+v\nwant: %+v",
						workers, got.Campaign, want)
				}
				if got.Detected != want.Detected {
					t.Fatalf("workers=%d: Detected=%v, serial=%v", workers, got.Detected, want.Detected)
				}
				if want.Detected && got.Campaign.DetectingPlan != want.DetectingPlan {
					t.Fatalf("workers=%d: first-detection plan %q, serial %q",
						workers, got.Campaign.DetectingPlan, want.DetectingPlan)
				}
			}
		})
	}
}

// TestExecutionsCountReference guards the accounting convention: the
// reference run is a real execution and is counted, so a campaign that
// detects on its very first plan reports Executions == 2.
func TestExecutionsCountReference(t *testing.T) {
	target := workload.Target56261()
	serial := serialCampaign(target, core.NewPlanner(), 5, 1)
	if !serial.Detected {
		t.Fatalf("planner unexpectedly missed 56261 in 5 executions: %+v", serial)
	}
	if serial.Executions < 2 {
		t.Fatalf("detected campaign must count the reference run: Executions=%d", serial.Executions)
	}
	eng := New(Config{Workers: 2, MaxExecutions: 5})
	got := eng.Run(target, core.NewPlanner())
	if got.Campaign.Executions != serial.Executions {
		t.Fatalf("engine Executions=%d, serial=%d", got.Campaign.Executions, serial.Executions)
	}
	if got.Stats.RawExecutions < got.Campaign.Executions {
		t.Fatalf("raw executions %d below serial-equivalent count %d",
			got.Stats.RawExecutions, got.Campaign.Executions)
	}
}

// TestMultiSeedSweep verifies that each seed is an honest re-execution:
// per-seed results match the serial loop run under that seed, not a
// replay of seed 1.
func TestMultiSeedSweep(t *testing.T) {
	target := workload.Target56261()
	seeds := []int64{1, 2, 3}
	eng := New(Config{Workers: 2, Seeds: seeds, MaxExecutions: 30})
	res := eng.Run(target, core.NewPlanner())
	if len(res.Seeds) != len(seeds) {
		t.Fatalf("expected %d seed results, got %d", len(seeds), len(res.Seeds))
	}
	for i, seed := range seeds {
		want := serialCampaign(target, core.NewPlanner(), 30, seed)
		got := res.Seeds[i]
		if got.Seed != seed {
			t.Fatalf("seed order: got %d at position %d, want %d", got.Seed, i, seed)
		}
		if !reflect.DeepEqual(got.Campaign, want) {
			t.Fatalf("seed %d diverged from serial re-execution\n got: %+v\nwant: %+v",
				seed, got.Campaign, want)
		}
	}
	if res.Stats.Seeds != len(seeds) {
		t.Fatalf("stats report %d seeds, want %d", res.Stats.Seeds, len(seeds))
	}
	// The primary result is seed 1's.
	if !reflect.DeepEqual(res.Campaign, res.Seeds[0].Campaign) {
		t.Fatal("primary campaign result is not the first seed's")
	}
}

// TestGuidedEngineDetects runs the coverage-guided mode end to end: it
// must still find the bug, and its instrumentation must produce coverage
// classes, signatures, and a detected failure bucket.
func TestGuidedEngineDetects(t *testing.T) {
	target := workload.Target56261()
	eng := New(Config{Workers: 2, Guided: true, MaxExecutions: 60})
	res := eng.Run(target, core.NewPlanner())
	if !res.Detected {
		t.Fatalf("guided engine missed 56261: %+v", res.Campaign)
	}
	if res.Stats.CoverageClasses == 0 {
		t.Fatal("guided run reported zero coverage classes")
	}
	if res.Stats.NovelSignatures == 0 {
		t.Fatal("guided run reported zero signatures")
	}
	found := false
	for _, b := range res.Buckets {
		if b.Detected {
			found = true
			if b.Count == 0 || b.ExamplePlan == "" {
				t.Fatalf("malformed detected bucket: %+v", b)
			}
		}
	}
	if !found {
		t.Fatalf("no detected failure bucket among %d buckets", len(res.Buckets))
	}
}

// TestKeepGoingCollectsMoreFailures verifies that disabling early cancel
// keeps executing after the first detection and that first-detection
// accounting is unchanged.
func TestKeepGoingCollectsMoreFailures(t *testing.T) {
	target := workload.Target56261()
	maxExec := 12
	stop := New(Config{Workers: 2, MaxExecutions: maxExec})
	keep := New(Config{Workers: 2, MaxExecutions: maxExec, KeepGoing: true, Collect: true})
	a := stop.Run(target, core.NewPlanner())
	b := keep.Run(target, core.NewPlanner())
	if !a.Detected || !b.Detected {
		t.Fatalf("both engines should detect: stop=%v keep=%v", a.Detected, b.Detected)
	}
	if !reflect.DeepEqual(a.Campaign, b.Campaign) {
		t.Fatalf("KeepGoing changed first-detection accounting\n got: %+v\nwant: %+v",
			b.Campaign, a.Campaign)
	}
	if b.Stats.RawExecutions != maxExec+1 { // every plan + the reference
		t.Fatalf("KeepGoing ran %d executions, want %d", b.Stats.RawExecutions, maxExec+1)
	}
	if b.Stats.RawExecutions < a.Stats.RawExecutions {
		t.Fatalf("KeepGoing ran fewer executions (%d) than early-cancel (%d)",
			b.Stats.RawExecutions, a.Stats.RawExecutions)
	}
}

// TestCampaignSmoke is the short-mode smoke test CI runs on every push:
// one fast campaign through the parallel engine, detection expected.
func TestCampaignSmoke(t *testing.T) {
	eng := New(Config{Workers: 2, MaxExecutions: 10})
	res := eng.Run(workload.Target56261(), core.NewPlanner())
	if !res.Detected {
		t.Fatalf("smoke campaign missed 56261: %+v", res.Campaign)
	}
	if res.Stats.RawExecutions == 0 || res.Stats.WallNanos == 0 {
		t.Fatalf("missing progress counters: %+v", res.Stats)
	}
}

// TestMatrixShape checks Matrix row-major ordering against the serial
// loop run cell by cell.
func TestMatrixShape(t *testing.T) {
	targets := []core.Target{workload.Target56261()}
	strategies := []core.Strategy{core.NewPlanner(), baselines.CrashTuner{}}
	eng := New(Config{Workers: 2, MaxExecutions: 15})
	got := eng.Matrix(targets, strategies)
	var want []core.CampaignResult
	for _, target := range targets {
		for _, s := range strategies {
			want = append(want, serialCampaign(target, s, 15, 1))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("matrix size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Campaign, want[i]) {
			t.Fatalf("matrix cell %d diverged\n got: %+v\nwant: %+v", i, got[i].Campaign, want[i])
		}
	}
}
