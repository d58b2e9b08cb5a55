// Package lib holds the planted findings and the near misses of
// TestReachFixture. Each declaration says which it is.
package lib

import (
	"encoding/json"
	"flag"
	"fmt"
)

// Config is an options struct: Set is assigned by the main, Unset by
// nothing (finding: a field no reached code writes).
type Config struct {
	Set   int
	Unset int
}

// Options plants the one-value settings. Fixed is set to 3 by every write
// (finding) and Defaulted is omitted by every literal and defaulted to 5
// (finding: a defaulted field nothing sets). Two is set to two constants,
// FromVar from a variable, Omitted to 7 by an assignment and to zero by a
// literal that omits it with no default, and Flagged by a flag that takes
// its address: none is a finding.
type Options struct {
	Fixed     int
	Defaulted int
	Two       int
	FromVar   int
	Omitted   int
	Flagged   int
}

// withDefaults fills in Defaulted's default.
func (o *Options) withDefaults() {
	if o.Defaulted == 0 {
		o.Defaulted = 5
	}
}

// Counter plants a write-only field, Hits (finding: a field no reached
// code reads), and a read-only one, Zero (finding: a field no reached code
// writes).
type Counter struct {
	Hits int
	Zero int
}

// key is only a map key: the map compares every field.
type key struct {
	a, b string
}

// pair is only compared with ==: the comparison reads every field. Its
// fields are each set to one constant, which is no finding: pair is not a
// settings struct.
type pair struct {
	x, y int
}

// shown is only printed: fmt reads every field.
type shown struct {
	msg string
}

// wire is only encoded: json tags exempt it from the field checks.
type wire struct {
	A int `json:"a"`
	B int `json:"b"`
}

// base is embedded in outer; its field and method are used through
// promotion only, which reads and writes the embedded field.
type base struct {
	n int
}

func (b *base) bump() { b.n++ }

type outer struct {
	base
}

// mode's constants: modeA is assigned, so it is reached; modeB is only
// tested against, by a case and by == (finding: a constant reached from no
// root, since nothing produces its value).
type mode int

const (
	modeA mode = iota
	modeB
)

// Run reaches everything above but unused and modeB.
func Run(cfg Config) {
	m := modeA
	switch m {
	case modeB:
		m = modeA
	}
	var c Counter
	c.Hits++
	seen := map[key]bool{{a: "x", b: "y"}: true}
	p, q := pair{x: 1, y: 2}, pair{x: 1, y: 2}
	b, _ := json.Marshal(wire{})
	var o outer
	o.bump()
	fmt.Println(cfg.Set, cfg.Unset, c.Zero, len(seen), p == q, shown{msg: "hi"}, len(b), o.n, m == modeB)

	opts := Options{Fixed: 3, Two: 1, FromVar: cfg.Set, Flagged: 4}
	opts.Two = 2
	opts.Omitted = 7
	flag.NewFlagSet("fixture", flag.ContinueOnError).IntVar(&opts.Flagged, "flagged", 4, "")
	opts.withDefaults()
	fmt.Println(opts.Fixed, opts.Defaulted, opts.Two, opts.FromVar, opts.Omitted, opts.Flagged)
}

// unused is reached from no root (finding).
func unused() {}
