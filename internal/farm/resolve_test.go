package farm

import (
	"strings"
	"testing"
)

// TestValidateFlags is the table-driven regression test for the cell
// flag combinations TaskSpec.Validate rejects — in phtest and phfarm
// after flag.Parse(), and in every grid toggle: combinations that would
// silently do nothing (-ranked without -prune) or fork the full-replay
// correctness baselines (-snapshot with -fixed).
func TestValidateFlags(t *testing.T) {
	var g Grid
	cases := []struct {
		name    string
		spec    TaskSpec
		wantErr string // substring; "" means the combination is valid
	}{
		{"defaults", TaskSpec{}, ""},
		{"prune-alone", TaskSpec{Prune: true}, ""},
		{"prune-ranked", TaskSpec{Prune: true, Ranked: true}, ""},
		{"ranked-without-prune", TaskSpec{Ranked: true}, "-ranked requires -prune"},
		{"explain-alone", TaskSpec{Explain: true}, ""},
		{"snapshot-alone", TaskSpec{Snapshot: true}, ""},
		{"fixed-alone", TaskSpec{Fixed: true}, ""},
		{"snapshot-with-fixed", TaskSpec{Snapshot: true, Fixed: true}, "-snapshot is incompatible with -fixed"},
		{"everything-valid", TaskSpec{Prune: true, Ranked: true, Explain: true, Snapshot: true}, ""},
		{"toggle-guided", g.spec(Toggle{Name: "t", Guided: true}), ""},
		{"toggle-learned", g.spec(Toggle{Name: "t", Prune: true, Ranked: true, Snapshot: true, Explain: true}), ""},
		{"toggle-ranked-without-prune", g.spec(Toggle{Name: "t", Ranked: true}), "-ranked requires -prune"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("inert/contradictory combination accepted: %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not describe the problem (want substring %q)", err, tc.wantErr)
			}
		})
	}
}

// TestRepeatedNamesRejected: a repeated target or strategy is a usage
// error, as a repeated seed is, and distinct names still resolve.
func TestRepeatedNamesRejected(t *testing.T) {
	if _, err := ResolveTargets("k8s-56261,k8s-56261", false); err == nil || !strings.Contains(err.Error(), `target "k8s-56261" repeated`) {
		t.Errorf("repeated target: %v", err)
	}
	if _, err := ResolveStrategies("cofi, random,cofi", 1, 10); err == nil || !strings.Contains(err.Error(), `strategy "cofi" repeated`) {
		t.Errorf("repeated strategy: %v", err)
	}
	if ts, err := ResolveTargets("k8s-56261, cass-op-400", false); err != nil || len(ts) != 2 {
		t.Errorf("distinct targets: %d, %v", len(ts), err)
	}
}
