// Package lib holds the planted findings and the near misses of
// TestReachFixture. Each declaration says which it is.
package lib

import (
	"encoding/json"
	"fmt"
)

// Config is an options struct: Set is assigned by the main, Unset by
// nothing (finding: a field no reached code writes).
type Config struct {
	Set   int
	Unset int
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

// pair is only compared with ==: the comparison reads every field.
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
}

// unused is reached from no root (finding).
func unused() {}
