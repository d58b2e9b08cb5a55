package explore

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

// SchemaCertificate versions the certificate format; readers refuse
// unknown schemas rather than misinterpreting counters.
const SchemaCertificate = "explore-certificate/v1"

// Certificate is the deterministic "no violation within bound" artifact:
// a statement that every schedule in the bounded space — up to the
// recorded collapses, whose soundness is argued in DESIGN.md §9 — was
// covered without the target's bug oracle firing. Every field is a pure
// function of (target, seed, bounds, por): reruns and snapshot on/off
// produce byte-identical certificates.
type Certificate struct {
	Schema        string `json:"schema"`
	Target        string `json:"target"`
	Bug           string `json:"bug"`
	Seed          int64  `json:"seed"`
	WindowStartNs int64  `json:"window_start_ns"`
	// WindowEndNs is -1 for an unbounded window (to the end of the run).
	WindowEndNs  int64 `json:"window_end_ns"`
	BoundDrops   int   `json:"bound_drops"`
	BoundDelays  int   `json:"bound_delays"`
	BoundCrashes int   `json:"bound_crashes"`
	DelayNs      int64 `json:"delay_ns"`
	POR          bool  `json:"por"`
	Stats        Stats `json:"stats"`
}

func newCertificate(t core.Target, cfg Config, b Bounds, wStart, wEnd sim.Time, st Stats) *Certificate {
	endNs := int64(-1)
	if b.Window > 0 {
		endNs = int64(wEnd)
	}
	return &Certificate{
		Schema:        SchemaCertificate,
		Target:        t.Name,
		Bug:           t.Bug,
		Seed:          cfg.Seed,
		WindowStartNs: int64(wStart),
		WindowEndNs:   endNs,
		BoundDrops:    b.Drops,
		BoundDelays:   b.Delays,
		BoundCrashes:  b.Crashes,
		DelayNs:       int64(b.Delay),
		POR:           cfg.POR,
		Stats:         st,
	}
}

// Marshal renders any explore artifact (Result, Certificate, Witness) in
// the canonical byte form: two-space indented JSON plus one trailing
// newline. Struct field order is fixed, so equal values are equal bytes.
func Marshal(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the canonical form to path.
func WriteFile(path string, v any) error {
	data, err := Marshal(v)
	if err != nil {
		return fmt.Errorf("explore: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}
