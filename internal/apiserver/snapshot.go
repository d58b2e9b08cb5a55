package apiserver

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/store"
)

// Snapshot captures an apiserver's watch-cache state at a checkpoint. The
// retained event window is shared copy-on-write (capped slice; applyOne's
// append reallocates, and trims always allocate fresh). Cached KVs share
// their value bytes — the apiserver never mutates a cached value in place,
// it installs fresh KV structs.
type Snapshot struct {
	ID          sim.NodeID
	Cfg         Config
	Down        bool
	Ready       bool
	Epoch       uint64
	Cache       map[string]store.KV
	CachedRev   int64
	Window      []history.Event // logical window (head already trimmed); cap == len; shared with the source server
	MinStartRev int64
	Subs        []ClientSubSnapshot // sorted by subscription key
	StoreSubID  uint64
	LastEventAt sim.Time
	RPCNext     uint64 // request-ID counter of the store-facing RPC client
}

// ClientSubSnapshot describes one client watch subscription.
type ClientSubSnapshot struct {
	SubID    uint64
	Client   sim.NodeID
	Kind     cluster.Kind
	LastSent int64
}

// Snapshot captures the server's state.
func (s *Server) Snapshot() *Snapshot {
	snap := &Snapshot{
		ID:          s.id,
		Cfg:         s.cfg,
		Down:        s.down,
		Ready:       s.ready,
		Epoch:       s.epoch,
		Cache:       make(map[string]store.KV, len(s.cache)),
		CachedRev:   s.cachedRev,
		Window:      s.window[s.winHead:len(s.window):len(s.window)],
		MinStartRev: s.minStartRev,
		StoreSubID:  s.storeSubID,
		LastEventAt: s.lastEventAt,
		RPCNext:     s.rpcCl.Next(),
	}
	for k, kv := range s.cache {
		snap.Cache[k] = kv
	}
	for _, sk := range sortedSubKeys(s.subs) {
		sub := s.subs[sk]
		snap.Subs = append(snap.Subs, ClientSubSnapshot{
			SubID:    sub.subID,
			Client:   sub.client,
			Kind:     sub.kind,
			LastSent: sub.lastSent,
		})
	}
	return snap
}

// Restore reconstructs an apiserver from a snapshot inside world w without
// bootstrapping or scheduling: the watch cache, subscriptions, epoch, and
// RPC counters come straight from the snapshot; the kernel re-inserts a
// pending resync firing from its own.
func Restore(w *sim.World, snap *Snapshot) *Server {
	s := &Server{
		id:          snap.ID,
		world:       w,
		cfg:         snap.Cfg,
		down:        snap.Down,
		ready:       snap.Ready,
		epoch:       snap.Epoch,
		cache:       make(map[string]store.KV, len(snap.Cache)),
		cachedRev:   snap.CachedRev,
		window:      snap.Window,
		minStartRev: snap.MinStartRev,
		subs:        make(map[string]*clientSub, len(snap.Subs)),
		storeSubID:  snap.StoreSubID,
		lastEventAt: snap.LastEventAt,
	}
	for k, kv := range snap.Cache {
		s.cache[k] = kv
	}
	// Serving-path acceleration state (per-kind key index, decode memo,
	// sub indexes) is rebuildable and deliberately not part of snapshots.
	s.rebuildKindIndex()
	for _, sub := range snap.Subs {
		s.subs[fmt.Sprintf("%s/%d", sub.Client, sub.SubID)] = &clientSub{
			subID:    sub.SubID,
			client:   sub.Client,
			kind:     sub.Kind,
			lastSent: sub.LastSent,
		}
	}
	s.rpcSrv = sim.NewRPCServer(w.Network(), s.id)
	s.rpcCl = sim.NewRPCClient(w.Network(), s.id, s.cfg.RPCTimeout)
	s.rpcCl.SetNext(snap.RPCNext)
	s.register()
	w.Network().Register(s.id, s)
	w.AddProcess(s)
	s.timers = w.Kernel().Own(string(s.id), s.resyncFire)
	return s
}
