package client

import (
	"fmt"
	"strconv"

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
	}
	ids := make([]uint64, 0, len(c.informers))
	for id := range c.informers {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
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
// armed; pending informer timers are re-installed by the restore
// orchestration via RearmInformer.
func RestoreConn(w *sim.World, snap *ConnSnapshot) *Conn {
	c := &Conn{
		world:     w,
		self:      snap.Self,
		api:       snap.API,
		rpc:       sim.NewRPCClient(w.Network(), snap.Self, snap.Timeout),
		informers: make(map[uint64]*Informer, len(snap.Informers)),
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

// Informer returns the restored informer with the given subscription ID.
func (c *Conn) Informer(subID uint64) (*Informer, bool) {
	inf, ok := c.informers[subID]
	return inf, ok
}

// RestoreHandler appends a handler without replaying the cache contents
// (restore path only: the handler's owner already holds state derived from
// those OnAdd calls in the checkpointed prefix).
func (i *Informer) RestoreHandler(h EventHandler) {
	i.handlers = append(i.handlers, h)
}

// RearmInformer returns the callback for a pending informer timer owned by
// one of this connection's informers, identified by its snapshot tag.
func (c *Conn) RearmInformer(tag sim.EventTag) (func(), error) {
	id, err := strconv.ParseUint(tag.Key, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("client: bad informer tag key %q: %v", tag.Key, err)
	}
	inf, ok := c.informers[id]
	if !ok {
		// A crash (Conn.Reset) drops informers but leaves their timers
		// pending; the live fire paths no-op on an unregistered sub. Rearm
		// the same no-op so the restored schedule keeps the event slot.
		return func() {}, nil
	}
	switch tag.Kind {
	case "inf-liveness":
		epoch := tag.Epoch
		return func() { inf.livenessFire(epoch) }, nil
	case "inf-relist":
		return inf.periodicRelistFire, nil
	default:
		return nil, fmt.Errorf("client: unknown pending event kind %q for %s", tag.Kind, c.self)
	}
}
