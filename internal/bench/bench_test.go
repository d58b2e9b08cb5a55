package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestE11GuidedCellIgnoresRequestedWidth: guided scheduling runs in
// rounds of Workers, so the guided column differs between engine widths
// (171 vs 176 executions on k8s-59848 at 4 vs 2). The artifact pins the
// width; the caller's -parallel must not reach the guided engine.
func TestE11GuidedCellIgnoresRequestedWidth(t *testing.T) {
	committed, err := ReadE11("../../BENCH_E11.json")
	if err != nil {
		t.Fatal(err)
	}
	target := workload.Target59848()
	want := committed.Rows[0]
	if want.Target != target.Name {
		t.Fatalf("committed row 0 is %s, want %s", want.Target, target.Name)
	}
	for _, workers := range []int{1, 2, 4} {
		eng, _ := e11Engines(committed.MaxExecutions, workers)
		res := eng.Run(target, core.NewPlanner())
		if got := cellOf(target, "partial-history", res.Campaign, res.Detected); got != want.Guided {
			t.Fatalf("guided cell at requested width %d: %+v, committed: %+v", workers, got, want.Guided)
		}
	}
}
