package core

import (
	"fmt"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
)

// Delivery-coordinate plans: the systematic explorer's decision vocabulary
// (internal/explore). Where GapPlan counts matching events at SEND time
// through an Interceptor, these plans rule at DELIVERY time through a
// sim.DeliveryGate, so their occurrence coordinate counts exactly the
// arrival stream the receiver observes — the same stream the trace
// recorder numbers. A schedule the explorer discovered by gating a live
// run therefore replays exactly as a plan under core.RunPlanSeed: the
// witness and the exploration step are the same execution.
//
// Occurrence counting is per matching event within arriving watch pushes,
// counted once per network message sequence number. Gates all see every
// arrival — including the RE-arrival of a message some other gate's Delay
// verdict re-enqueued — so each counter remembers the Seqs it has already
// ruled on and never counts a sequence number twice. Without that, a
// composed schedule (delay occurrence 1 + drop occurrence 2 on the same
// coordinate) would let the drop gate count the delayed push twice and
// fire on the re-arrival instead of the intended 2nd delivery.

// DropDeliveryPlan drops the watch-push message whose payload carries the
// Occurrence-th arrival matching (Victim, Kind, Name, Type) — an
// observability gap placed at a delivery coordinate.
type DropDeliveryPlan struct {
	Victim     sim.NodeID
	Kind       cluster.Kind
	Name       string
	Type       apiserver.EventType // empty = any type
	Occurrence int                 // 1-based arrival count; must be > 0
}

// ID implements Plan.
func (p DropDeliveryPlan) ID() string {
	return fmt.Sprintf("dropdel/%s/%s/%s/%s#%d", p.Victim, p.Kind, p.Name, p.Type, p.Occurrence)
}

// Describe implements Plan.
func (p DropDeliveryPlan) Describe() string {
	return fmt.Sprintf("drop delivery #%d of %s %s/%s to %s", p.Occurrence, p.Type, p.Kind, p.Name, p.Victim)
}

// Apply implements Plan.
func (p DropDeliveryPlan) Apply(c *infra.Cluster) { p.apply(c, 0) }

// apply installs the gate with seen matching arrivals already counted.
func (p DropDeliveryPlan) apply(c *infra.Cluster, seen int) {
	g := &deliveryCounter{victim: p.Victim, kind: p.Kind, name: p.Name, typ: p.Type, seen: seen}
	done := seen >= p.Occurrence
	c.World.Network().AddDeliveryGate(sim.DeliveryGateFunc(func(m *sim.Message) sim.Decision {
		if done {
			return sim.Decision{Verdict: sim.Pass}
		}
		if g.matches(m, p.Occurrence) {
			done = true
			return sim.Decision{Verdict: sim.Drop}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))
}

// DelayDeliveryPlan defers the watch-push message carrying the
// Occurrence-th matching arrival by Delay extra virtual time — a bounded
// staleness injection at a single delivery coordinate. The deferred
// message re-enters every gate on re-arrival and passes without
// recounting (deliveryCounter rules on each Seq at most once).
type DelayDeliveryPlan struct {
	Victim     sim.NodeID
	Kind       cluster.Kind
	Name       string
	Type       apiserver.EventType // empty = any type
	Occurrence int                 // 1-based arrival count; must be > 0
	Delay      sim.Duration
}

// ID implements Plan.
func (p DelayDeliveryPlan) ID() string {
	return fmt.Sprintf("delaydel/%s/%s/%s/%s#%d+%s", p.Victim, p.Kind, p.Name, p.Type, p.Occurrence, p.Delay)
}

// Describe implements Plan.
func (p DelayDeliveryPlan) Describe() string {
	return fmt.Sprintf("delay delivery #%d of %s %s/%s to %s by %s", p.Occurrence, p.Type, p.Kind, p.Name, p.Victim, p.Delay)
}

// Apply implements Plan.
func (p DelayDeliveryPlan) Apply(c *infra.Cluster) { p.apply(c, 0) }

// apply installs the gate with seen matching arrivals already counted.
func (p DelayDeliveryPlan) apply(c *infra.Cluster, seen int) {
	g := &deliveryCounter{victim: p.Victim, kind: p.Kind, name: p.Name, typ: p.Type, seen: seen}
	done := seen >= p.Occurrence
	c.World.Network().AddDeliveryGate(sim.DeliveryGateFunc(func(m *sim.Message) sim.Decision {
		if done {
			// Covers our own deferral re-arriving: the hit set done, and
			// the counter already ruled on its Seq when first seen.
			return sim.Decision{Verdict: sim.Pass}
		}
		if g.matches(m, p.Occurrence) {
			done = true
			d := p.Delay
			if d <= 0 {
				d = sim.Millisecond
			}
			return sim.Decision{Verdict: sim.Delay, Delay: d}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))
}

// deliveryCounter counts matching events inside arriving watch pushes.
// matches reports whether the target occurrence is reached by message m.
// Each network Seq is ruled on at most once: a Delay verdict (this gate's
// or any other gate's) re-enqueues the message through Network.deliver,
// which re-runs every gate, and that re-arrival must not advance the
// occurrence count — the coordinate vocabulary counts message sequence
// numbers, not gate invocations.
type deliveryCounter struct {
	victim sim.NodeID
	kind   cluster.Kind
	name   string
	typ    apiserver.EventType
	seen   int
	ruled  map[uint64]bool
}

func (g *deliveryCounter) matches(m *sim.Message, occurrence int) bool {
	if m.To != g.victim || m.Kind != apiserver.KindWatchPush {
		return false
	}
	if g.ruled[m.Seq] {
		return false
	}
	push, ok := m.Payload.(*apiserver.WatchPushMsg)
	if !ok {
		return false
	}
	if g.ruled == nil {
		g.ruled = make(map[uint64]bool)
	}
	g.ruled[m.Seq] = true
	hit := false
	for _, ev := range push.Events {
		if ev.Object == nil || ev.Object.Meta.Kind != g.kind || ev.Object.Meta.Name != g.name {
			continue
		}
		if g.typ != "" && ev.Type != g.typ {
			continue
		}
		g.seen++
		if g.seen == occurrence {
			hit = true
		}
	}
	return hit
}
