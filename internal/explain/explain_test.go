package explain_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/workload"
)

// detectingTimeTravel finds the first planner-generated time-travel plan
// that reproduces the k8s-59848 bug under the default seed.
func detectingTimeTravel(t *testing.T) (core.Target, core.TimeTravelPlan) {
	t.Helper()
	target := workload.Target59848()
	ref, _ := core.ReferenceSeed(target, 1)
	for _, p := range core.NewPlanner().Plans(target, ref) {
		tt, ok := p.(core.TimeTravelPlan)
		if !ok {
			continue
		}
		if core.RunPlanSeed(target, tt, 1).Detected {
			return target, tt
		}
	}
	t.Fatal("no planner time-travel plan detects k8s-59848; planner regression")
	return core.Target{}, core.TimeTravelPlan{}
}

// TestExplainTimeTravelChain checks the structure of the causal chain for
// the paper's Figure 2 bug: the chain starts at the perturbation, passes
// through a divergence, and terminates at the oracle violation, with
// non-zero time-travel divergence metrics.
func TestExplainTimeTravelChain(t *testing.T) {
	target, plan := detectingTimeTravel(t)
	e := explain.Explain(target, plan, 1)
	if e == nil {
		t.Fatal("Explain returned nil for a detecting plan")
	}
	if e.Target != target.Name || e.Seed != 1 {
		t.Fatalf("explanation identity wrong: %s seed %d", e.Target, e.Seed)
	}
	if len(e.Chain) < 3 {
		t.Fatalf("chain too short: %d steps", len(e.Chain))
	}
	if e.Chain[0].Kind != explain.StepPerturbation {
		t.Fatalf("chain starts with %q, want %q", e.Chain[0].Kind, explain.StepPerturbation)
	}
	last := e.Chain[len(e.Chain)-1]
	if last.Kind != explain.StepViolation {
		t.Fatalf("chain ends with %q, want %q", last.Kind, explain.StepViolation)
	}
	if !strings.Contains(last.Detail, target.Bug) {
		t.Fatalf("violation step %q does not name the bug oracle %q", last.Detail, target.Bug)
	}
	if e.Metrics.TimeTravelEpisodes == 0 || e.Metrics.TimeTravelDepth == 0 {
		t.Fatalf("time-travel plan produced no time-travel metrics: %+v", e.Metrics)
	}
}

// TestExplainGoldenRender pins the exact rendered explanation for the
// k8s-59848 time-travel reproduction under seed 1. The simulation is
// deterministic, so this output is stable; if it changes, either the
// simulation's event timing or the explanation layer changed behaviour —
// both are worth a deliberate golden update.
func TestExplainGoldenRender(t *testing.T) {
	target, plan := detectingTimeTravel(t)
	e := explain.Explain(target, plan, 1)
	got := e.Render()

	const want = `k8s-59848 seed 1 — minimal plan: freeze api-2 at 0.507342s, crash kubelet-k1 at 3.502342s, restart onto frozen view
  affected component: kubelet-k1
  1. [0.507342s] perturbation:            freeze api-2 at 0.507342s — it preserves the historical view at revision 5
  2. [3.502342s] perturbation:            crash kubelet-k1 at 3.502342s and steer its restart onto frozen api-2
  3. [3.602342s] action:                  kubelet-k1 issues api.Create nodes/k1 instead of the reference's api.Update nodes/k1 — acting on its divergent view
  4. [4.259154s] divergence:              kubelet-k1 observes MODIFIED pods/p1 at rev 6 after having seen rev 22 — its view travelled 16 revisions back in time
  5. [3.610000s] violation:               oracle UniquePod on pods/p1: pod "p1" running on multiple hosts: k1,k2
  divergence: staleness-lag=53rev/7.053291s gap-width=0 time-travel=4x/depth 16 forced-relists=2 dropped=0 duplicated=0 relist-storm=1
`
	if got != want {
		t.Fatalf("golden explanation drifted\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderTimelineShape sanity-checks the ASCII timeline: one row per
// timed step, ordered, ending in the violation marker.
func TestRenderTimelineShape(t *testing.T) {
	target, plan := detectingTimeTravel(t)
	e := explain.Explain(target, plan, 1)
	tl := e.RenderTimeline()
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) < 1+len(e.Chain) {
		t.Fatalf("timeline has %d lines, want >= %d", len(lines), 1+len(e.Chain))
	}
	if !strings.Contains(lines[len(lines)-1], "violation") {
		t.Fatalf("timeline does not end at the violation: %q", lines[len(lines)-1])
	}
}
