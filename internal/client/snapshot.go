package client

import (
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
)

// ConnSnapshot captures a connection and all of its informers at a
// checkpoint. RPC in-flight state is forbidden (a checkpoint is only taken
// at quiescent instants where every pending call's timeout timer has been
// canceled), so only counters survive.
type ConnSnapshot struct {
	Self      sim.NodeID
	API       sim.NodeID
	Timeout   sim.Duration
	NextSub   uint64
	RPCNext   uint64
	Informers []*InformerSnapshot // sorted by subscription ID
	// Owner is the name the informers' timers are armed under; Retired says
	// the connection had been Reset (its component is down).
	Owner   string
	Retired bool
}

// InformerSnapshot captures one informer cache. Cached object pointers are
// shared with the live informer, with every fork restored from the
// snapshot (possibly on other goroutines) and with whoever the informer
// handed them to: API objects are immutable once received (DESIGN.md,
// "Object ownership"), so nothing needs copying.
type InformerSnapshot struct {
	Kind        cluster.Kind
	Cfg         InformerConfig
	SubID       uint64
	Epoch       uint64
	Synced      bool
	Store       map[string]*cluster.Object
	LastRev     int64
	Obs         history.ObservationLog // copy-on-write fork
	LastEventAt sim.Time
	Relists     int
	Retries     int
	Backoff     sim.Duration
}

// Snapshot captures the connection. It fails (ok=false) when a call is in
// flight — forks must not be taken there because the pending timeout timer
// carries a closure this layer cannot reconstruct (the kernel-side
// anonymous-event check catches this too; this is a belt-and-braces
// check).
func (c *Conn) Snapshot() (*ConnSnapshot, bool) {
	if c.rpc.PendingCalls() > 0 {
		return nil, false
	}
	snap := &ConnSnapshot{
		Self:    c.self,
		API:     c.api,
		Timeout: c.rpc.Timeout(),
		NextSub: c.nextSub,
		RPCNext: c.rpc.Next(),
		Owner:   c.timers.Name(),
		Retired: c.timers.Retired(),
	}
	for _, id := range c.sortedSubIDs() {
		snap.Informers = append(snap.Informers, c.informers[id].snapshot())
	}
	return snap, true
}

func (i *Informer) snapshot() *InformerSnapshot {
	s := &InformerSnapshot{
		Kind:        i.kind,
		Cfg:         i.cfg,
		SubID:       i.subID,
		Epoch:       i.epoch,
		Synced:      i.synced,
		Store:       make(map[string]*cluster.Object, len(i.store)),
		LastRev:     i.lastRev,
		Obs:         i.Obs.Fork(),
		LastEventAt: i.lastEventAt,
		Relists:     i.relists,
		Retries:     i.retries,
		Backoff:     i.backoff,
	}
	for name, obj := range i.store {
		s.Store[name] = obj // shared; see type comment
	}
	return s
}

// RestoreConn reconstructs a connection (and its informers) from a
// snapshot. Event handlers are NOT restored — the owning component
// re-attaches its own handlers via RestoreHandler — and no timers are
// armed: the kernel re-inserts the pending ones under the restored
// connection's owner name.
func RestoreConn(w *sim.World, snap *ConnSnapshot) *Conn {
	c := newConn(w, snap.Self, snap.API, snap.Timeout, snap.Owner)
	if snap.Retired {
		c.timers.Retire()
	}
	c.rpc.SetNext(snap.RPCNext)
	c.nextSub = snap.NextSub
	for _, is := range snap.Informers {
		inf := &Informer{
			conn:        c,
			kind:        is.Kind,
			cfg:         is.Cfg,
			subID:       is.SubID,
			epoch:       is.Epoch,
			synced:      is.Synced,
			store:       make(map[string]*cluster.Object, len(is.Store)),
			lastRev:     is.LastRev,
			Obs:         is.Obs,
			lastEventAt: is.LastEventAt,
			relists:     is.Relists,
			retries:     is.Retries,
			backoff:     is.Backoff,
		}
		for name, obj := range is.Store {
			inf.store[name] = obj
		}
		c.informers[is.SubID] = inf
	}
	return c
}

// SubID returns the informer's watch subscription ID.
func (i *Informer) SubID() uint64 { return i.subID }

// InformerFor returns the connection's informer of the given kind — no
// component runs two of one kind — or nil: a connection that has been Reset
// has none. It is how a restored component finds its informers again.
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
