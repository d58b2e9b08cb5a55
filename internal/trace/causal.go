package trace

import (
	"sort"

	"repro/internal/sim"
)

// This file implements the causality analysis the paper's Section 7 calls
// for: "recording causal relationships between events can be useful. For
// example, perturbing events that are causally related to a component's
// action are likely to trigger bugs."
//
// The graph is built from the happens-before structure the trace already
// contains: a commit happens-before every delivery carrying its revision,
// and a delivery to component C happens-before every later write by C
// (bounded by a reaction window — controllers act on fresh observations).

// CausalLink is one component action plausibly caused by a delivery of the
// revision EffectsOf was asked about.
type CausalLink struct {
	Write Write
	// Gap is the virtual time between observation and action; shorter gaps
	// mean stronger causal suspicion.
	Gap sim.Duration
}

// CausalGraph indexes deliveries and writes for causal queries.
type CausalGraph struct {
	trace *Trace
	// ReactionWindow bounds how long after a delivery a write may still be
	// attributed to it.
	ReactionWindow sim.Duration
}

// NewCausalGraph builds a graph over the trace with the given reaction
// window (0 = 500ms, a generous bound for the simulated controllers).
func NewCausalGraph(t *Trace, window sim.Duration) *CausalGraph {
	if window <= 0 {
		window = 500 * sim.Millisecond
	}
	return &CausalGraph{trace: t, ReactionWindow: window}
}

// EffectsOf returns the writes plausibly caused by deliveries of the given
// revision: for every component that observed rev, its writes within the
// reaction window after the observation.
func (g *CausalGraph) EffectsOf(rev int64) []CausalLink {
	var out []CausalLink
	for _, d := range g.trace.Deliveries {
		if d.Revision != rev {
			continue
		}
		for _, w := range g.trace.Writes {
			if w.From != d.To || w.Time < d.Time {
				continue
			}
			if w.Time.Sub(d.Time) > g.ReactionWindow {
				continue
			}
			out = append(out, CausalLink{Write: w, Gap: w.Time.Sub(d.Time)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gap != out[j].Gap {
			return out[i].Gap < out[j].Gap
		}
		return out[i].Write.Time < out[j].Write.Time
	})
	return out
}

// HotDeliveries ranks deliveries by how many component writes they
// plausibly caused — the planner's highest-value perturbation targets. Ties
// break toward deletion-adjacent events, then earlier time.
func (g *CausalGraph) HotDeliveries(limit int) []Delivery {
	type scored struct {
		d     Delivery
		score int
	}
	var all []scored
	for _, d := range g.trace.Deliveries {
		n := 0
		for _, w := range g.trace.Writes {
			if w.From == d.To && w.Time >= d.Time && w.Time.Sub(d.Time) <= g.ReactionWindow {
				n++
			}
		}
		all = append(all, scored{d: d, score: n})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		si := all[i].d.Terminating || all[i].d.EventType == "DELETED"
		sj := all[j].d.Terminating || all[j].d.EventType == "DELETED"
		if si != sj {
			return si
		}
		return all[i].d.Time < all[j].d.Time
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]Delivery, len(all))
	for i, s := range all {
		out[i] = s.d
	}
	return out
}

// Score counts the writes plausibly caused by one delivery: actions by the
// receiving component within the reaction window. The planner uses it to
// order perturbation candidates — dropping a high-score delivery is most
// likely to flip a decision.
func (g *CausalGraph) Score(d Delivery) int {
	n := 0
	for _, w := range g.trace.Writes {
		if w.From == d.To && w.Time >= d.Time && w.Time.Sub(d.Time) <= g.ReactionWindow {
			n++
		}
	}
	return n
}
