package client

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// ConnSnapshot captures a connection and all of its informers at a
// checkpoint. RPC in-flight state is forbidden (a checkpoint is only taken
// at quiescent instants where every pending call's timeout timer has been
// canceled), so nothing of the RPC client but its timeout survives.
type ConnSnapshot struct {
	Self      sim.NodeID
	Timeout   sim.Duration
	State     connState
	Informers []InformerSnapshot // sorted by subscription ID
}

// InformerSnapshot captures one informer cache.
type InformerSnapshot struct {
	Kind  cluster.Kind
	Cfg   InformerConfig
	State informerState
}

// Quiescent reports whether the connection can be captured: no call is in
// flight. Forks must not be taken with one, because its pending timeout
// timer carries a closure this layer cannot reconstruct (the kernel-side
// anonymous-event check catches this too; this is a belt-and-braces
// check).
func (c *Conn) Quiescent() bool { return c.rpc.PendingCalls() == 0 }

// Snapshot captures the connection, which must be Quiescent.
func (c *Conn) Snapshot() *ConnSnapshot {
	snap := &ConnSnapshot{
		Self:      c.self,
		Timeout:   c.rpc.Timeout(),
		State:     c.connState,
		Informers: make([]InformerSnapshot, 0, len(c.informers)),
	}
	for _, id := range c.sortedSubIDs() {
		inf := c.informers[id]
		snap.Informers = append(snap.Informers, InformerSnapshot{Kind: inf.kind, Cfg: inf.cfg, State: inf.informerState.clone()})
	}
	return snap
}

// RestoreConn reconstructs a connection (and its informers) from a
// snapshot. Event handlers are NOT restored — the owning component
// re-attaches its own handlers via RestoreHandler — and no timers are
// armed: the kernel re-inserts the pending ones under the restored
// connection's owner name. The connection of a component the world records
// as down had been Reset with its boot, and comes back retired.
func RestoreConn(w *sim.World, snap *ConnSnapshot) *Conn {
	c := NewConn(w, snap.Self, snap.State.api, snap.Timeout)
	c.connState = snap.State
	if w.Crashed(snap.Self) {
		c.timers.Retire()
	}
	for _, is := range snap.Informers {
		c.informers[is.State.subID] = &Informer{conn: c, kind: is.Kind, cfg: is.Cfg, informerState: is.State.clone()}
	}
	return c
}

// SubID returns the informer's watch subscription ID.
func (i *Informer) SubID() uint64 { return i.subID }

// InformerFor returns the connection's informer of the given kind, or nil:
// a connection that has been Reset has none. It is how a restored component
// finds its informers again. No connection runs two of one kind — a
// controller.Shell refuses the declaration — so which one the map yields
// first is not a question.
func (c *Conn) InformerFor(kind cluster.Kind) *Informer {
	for _, inf := range c.informers {
		if inf.kind == kind {
			return inf
		}
	}
	return nil
}

// RestoreHandler appends a handler without replaying the cache contents
// (restore path only: the handler's owner already holds state derived from
// those OnAdd calls in the checkpointed prefix).
func (i *Informer) RestoreHandler(h EventHandler) {
	i.handlers = append(i.handlers, h)
}
