package farm

import (
	"strings"
	"testing"
)

// TestValidateFlags is the table-driven regression test for the flag
// combinations both CLIs reject after flag.Parse(): combinations that
// would silently do nothing (-ranked without -prune) or fork the
// full-replay correctness baselines (-snapshot with -fixed).
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		rules   FlagRules
		wantErr string // substring; "" means the combination is valid
	}{
		{"defaults", FlagRules{}, ""},
		{"prune-alone", FlagRules{Prune: true}, ""},
		{"prune-ranked", FlagRules{Prune: true, Ranked: true}, ""},
		{"ranked-without-prune", FlagRules{Ranked: true}, "-ranked requires -prune"},
		{"explain-alone", FlagRules{Explain: true}, ""},
		{"snapshot-alone", FlagRules{Snapshot: true}, ""},
		{"fixed-alone", FlagRules{Fixed: true}, ""},
		{"snapshot-with-fixed", FlagRules{Snapshot: true, Fixed: true}, "-snapshot is incompatible with -fixed"},
		{"everything-valid", FlagRules{Prune: true, Ranked: true, Explain: true, Snapshot: true}, ""},
		{"explore-alone", FlagRules{Explore: true}, ""},
		{"explore-with-fixed", FlagRules{Explore: true, Fixed: true}, ""},
		{"explore-with-guided", FlagRules{Explore: true, Guided: true}, "-explore is incompatible with -guided"},
		{"explore-with-prune", FlagRules{Explore: true, Prune: true}, "-explore is incompatible with -prune"},
		{"explore-with-snapshot", FlagRules{Explore: true, Snapshot: true}, "-explore is incompatible with -snapshot"},
		{"explore-with-explain", FlagRules{Explore: true, Explain: true}, "-explore is incompatible with -explain"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateFlags(tc.rules)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("inert/contradictory combination accepted: %+v", tc.rules)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not describe the problem (want substring %q)", err, tc.wantErr)
			}
		})
	}
}
