package sim

// Generation counts the changes to one piece of ground truth — a host's
// container set, the store keys under one prefix. The owner bumps it in the
// one place the data is written; a reader that keeps the value it last saw
// learns "nothing changed" from one load, without reading the data. The
// value only ever grows and means nothing across owners: a restored
// component starts a fresh counter, so a reader must not carry a seen value
// from one owner to another.
type Generation struct{ n uint64 }

// Bump records one change.
func (g *Generation) Bump() { g.n++ }

// Value returns the number of changes so far.
func (g *Generation) Value() uint64 { return g.n }
