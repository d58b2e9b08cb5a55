package trace

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// CausesOf returns the deliveries that plausibly caused a write: events
// delivered to the writing component within the reaction window before the
// write, newest first.
func (g *CausalGraph) CausesOf(w Write) []Delivery {
	var out []Delivery
	for _, d := range g.trace.Deliveries {
		if d.To != w.From || d.Time > w.Time || w.Time.Sub(d.Time) > g.ReactionWindow {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// ChainsThrough returns the deliveries of one object that a component
// acted on, one per write they plausibly caused, in delivery order: how
// changes to (kind, name) propagated into component actions.
func (g *CausalGraph) ChainsThrough(kind cluster.Kind, name string) []Delivery {
	var out []Delivery
	for _, d := range g.trace.Deliveries {
		if d.Kind != kind || d.Name != name {
			continue
		}
		for _, w := range g.trace.Writes {
			if w.From == d.To && w.Time >= d.Time && w.Time.Sub(d.Time) <= g.ReactionWindow {
				out = append(out, d)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// ComponentHash returns an order-sensitive FNV-1a hash of the sequence of
// watch deliveries one component observed: kind, object name, event type,
// and the terminating marker, in delivery order. It deliberately excludes
// revisions and timestamps so that two runs differing only in incidental
// timing (but observing the same decision-relevant sequence) coincide.
func (t *Trace) ComponentHash(id sim.NodeID) uint64 {
	h := newFNV()
	for i := range t.Deliveries {
		if t.Deliveries[i].To != id {
			continue
		}
		writeDelivery(&h, &t.Deliveries[i])
	}
	return uint64(h)
}

// StateHashUpTo is StateHash restricted to the execution prefix at or
// before virtual time upto: deliveries by arrival time, commits by commit
// time. Two schedules whose prefixes hash alike have delivered the same
// decision-relevant sequences to every component and committed the same
// ground truth up to that instant (timing differences inside the prefix
// are deliberately abstracted away, exactly as in StateHash). Note the
// systematic explorer keys its visited-state set on the FULL-run
// StateHash, not a prefix: a delay can push behaviour past any clipping
// point, so prefix equality alone does not imply suffix equality.
func (t *Trace) StateHashUpTo(upto sim.Time) uint64 {
	h := newFNV()
	for _, id := range t.Components() {
		h.str("@")
		h.str(string(id))
		for i := range t.Deliveries {
			if d := &t.Deliveries[i]; d.To == id && d.Time <= upto {
				writeDelivery(&h, d)
			}
		}
	}
	h.str("#commits")
	for _, e := range t.Commits {
		if sim.Time(e.Time) > upto {
			continue
		}
		h.byte(byte(e.Type))
		h.str(e.Key)
		h.byte(0)
	}
	return uint64(h)
}

// ComponentHashes returns the per-component delivery hashes, keyed by
// component, for diagnostics and finer-grained coverage accounting.
func (t *Trace) ComponentHashes() map[sim.NodeID]uint64 {
	out := make(map[sim.NodeID]uint64)
	for _, id := range t.Components() {
		out[id] = t.ComponentHash(id)
	}
	return out
}

// ActedOn reports whether component wrote to (kind, name) at any point —
// the causality approximation: events about objects a component itself
// manipulates are the likeliest to change its decisions (§7).
func (t *Trace) ActedOn(component sim.NodeID, kind cluster.Kind, name string) bool {
	for _, w := range t.Writes {
		if w.From == component && w.Kind == kind && w.Name == name {
			return true
		}
	}
	return false
}
