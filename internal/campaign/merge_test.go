package campaign

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// copyOf is x merged into the zero Result: by Merge's contract a copy that
// shares no mutable state with x, so a law can use x on both sides.
func copyOf(x Result) Result { return Merge(Result{}, x) }

// TestMergeLaws checks the laws Merge's comment states — the ones that
// replaced the farm's argument that its merge mirrored the engine's
// aggregation — on every target, with no instrumentation beyond Collect,
// with the guided scheduler and the explanation pass (and no Outcomes to
// recount coverage from), and with the learned schedule.
func TestMergeLaws(t *testing.T) {
	seeds := []int64{1, 2, 3}
	configs := []struct {
		name    string
		cfg     Config
		learned bool // seed n reads the buckets of seeds < n: no fold law
	}{
		{"collect", Config{Collect: true}, false},
		{"guided-explain", Config{Guided: true, Explain: true}, false},
		{"prune-ranked", Config{Collect: true, Prune: true, Ranked: true}, true},
	}
	joined, explained := 0, 0 // what the laws were exercised on, over all runs
	for i, target := range workload.AllTargets() {
		if testing.Short() && i%2 == 0 {
			continue
		}
		for _, tc := range configs {
			target, tc := target, tc
			t.Run(target.Name+"/"+tc.name, func(t *testing.T) {
				sweep := tc.cfg
				sweep.Workers, sweep.MaxExecutions, sweep.KeepGoing, sweep.Snapshot = 2, 16, true, true
				sweep.Seeds = seeds
				var parts []Result
				for _, seed := range seeds {
					one := sweep
					one.Seeds = []int64{seed}
					x := New(one).Run(target, core.NewPlanner())
					assertEquivalent(t, x, Merge(Result{}, x), one, one)
					assertEquivalent(t, x, Merge(copyOf(x), Result{}), one, one)
					parts = append(parts, x)
				}
				a, b, c := parts[0], parts[1], parts[2]
				left := Merge(Merge(copyOf(a), b), c)
				right := Merge(copyOf(a), Merge(copyOf(b), c))
				assertEquivalent(t, left, right, sweep, sweep)
				if len(left.Seeds) != len(seeds) || left.Stats.Seeds != len(seeds) {
					t.Fatalf("merged %d seed results, stats say %d, want %d", len(left.Seeds), left.Stats.Seeds, len(seeds))
				}
				if !tc.learned {
					assertEquivalent(t, New(sweep).Run(target, core.NewPlanner()), left, sweep, sweep)
				}
				joined += len(a.Buckets) + len(b.Buckets) + len(c.Buckets) - len(left.Buckets)
				explained += left.Stats.ExplainedBuckets
			})
		}
	}
	if joined == 0 || explained == 0 {
		t.Fatalf("laws checked on %d joined and %d explained buckets: the runs exercise nothing", joined, explained)
	}
}

// TestMergeCoverageWithoutOutcomes: the distinct-coverage counts ride on
// the parts themselves, so a sweep that keeps no Outcomes still reports
// them — and an uninstrumented sweep still reports none.
func TestMergeCoverageWithoutOutcomes(t *testing.T) {
	target := workload.Target56261()
	base := Config{Workers: 2, Seeds: []int64{1, 2}, MaxExecutions: 20}

	bare := New(base).Run(target, core.NewPlanner())
	if bare.Stats.CoverageClasses != 0 || bare.Stats.NovelSignatures != 0 {
		t.Fatalf("uninstrumented sweep reports coverage: %d classes, %d signatures",
			bare.Stats.CoverageClasses, bare.Stats.NovelSignatures)
	}

	guided, collected := base, base
	guided.Guided = true
	collected.Guided, collected.Collect = true, true
	got := New(guided).Run(target, core.NewPlanner())
	want := New(collected).Run(target, core.NewPlanner())
	if got.Outcomes != nil {
		t.Fatalf("Guided without Collect kept %d outcomes", len(got.Outcomes))
	}
	if got.Stats.CoverageClasses == 0 || got.Stats.NovelSignatures == 0 {
		t.Fatalf("guided sweep lost its coverage: %+v", got.Stats)
	}
	if got.Stats.CoverageClasses != want.Stats.CoverageClasses || got.Stats.NovelSignatures != want.Stats.NovelSignatures {
		t.Fatalf("coverage without outcomes = %d classes / %d signatures, with outcomes %d / %d",
			got.Stats.CoverageClasses, got.Stats.NovelSignatures, want.Stats.CoverageClasses, want.Stats.NovelSignatures)
	}
	// A part that crossed a process boundary has only its Outcomes to
	// recount from: the same counts must come out.
	wire := want
	wire.cov = nil
	if m := Merge(Result{}, wire); m.Stats.CoverageClasses != want.Stats.CoverageClasses || m.Stats.NovelSignatures != want.Stats.NovelSignatures {
		t.Fatalf("coverage rebuilt from outcomes = %d / %d, want %d / %d",
			m.Stats.CoverageClasses, m.Stats.NovelSignatures, want.Stats.CoverageClasses, want.Stats.NovelSignatures)
	}
}
