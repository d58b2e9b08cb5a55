package farm

import (
	"bytes"
	"testing"
)

// TestFarmByteIdentityScale: the farm must stay an implementation detail
// at cluster scale — a 100-node topology-world campaign merged from farm
// workers is byte-identical to the single-process run. Gated off under
// -race (the CI scale-smoke step proves the same property end-to-end
// without the detector's order-of-magnitude slowdown).
func TestFarmByteIdentityScale(t *testing.T) {
	if raceSlowdown > 1 {
		t.Skip("race mode: scale byte-identity is covered by the CI scale-smoke step")
	}
	spec := TaskSpec{
		Target:        "scale-rackdrain-100",
		Strategy:      "partial-history",
		Seeds:         []int64{1},
		MaxExecutions: 6,
		Parallel:      2,
	}
	direct := directRun(t, spec)
	cfg := spec.Config()
	wantArt := artifactBytes(t, direct, cfg)
	wantND := ndjsonBytes(t, direct, cfg)
	merged := farmRun(t, []string{spec.Target}, []string{spec.Strategy}, spec, 2)
	if len(merged) != 1 {
		t.Fatalf("got %d merged cells, want 1", len(merged))
	}
	if got := artifactBytes(t, merged[0], cfg); !bytes.Equal(got, wantArt) {
		t.Error("farmed 100-node artifact differs from single-process run")
	}
	if got := ndjsonBytes(t, merged[0], cfg); !bytes.Equal(got, wantND) {
		t.Error("farmed 100-node telemetry differs from single-process run")
	}
}
