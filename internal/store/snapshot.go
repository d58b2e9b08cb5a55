package store

import (
	"sort"

	"repro/internal/history"
	"repro/internal/sim"
)

// Snapshot captures a Store plus its Server wrapper at a checkpoint. The
// committed-event log is shared copy-on-write with the live store (it is
// immutable once committed; Append on either side reallocates); every
// mutable map is copied. KV value byte slices are shared because the store
// never mutates a committed value in place (writes install fresh KVs and
// reads clone).
type Snapshot struct {
	// Store state.
	Rev       int64
	Compacted int64
	KVs       map[string]KV
	Hist      []history.Event // cap == len; shared with the source store
	NextWatch int64
	NextLease LeaseID
	Leases    map[LeaseID]Lease
	LeaseKeys map[LeaseID][]string // sorted attached keys per lease
	RetainMax int
	Now       int64

	// Server state.
	ID   sim.NodeID
	Down bool
	Subs []SubSnapshot // sorted by subscription key
}

// SubSnapshot describes one live watch subscription: which client it
// pushes to and which store watcher (by original ID, preserving the
// commit-notification order) it owns.
type SubSnapshot struct {
	SubID     uint64
	Client    sim.NodeID
	WatcherID int64
	Prefix    string
}

// Snapshot captures the server and its store. It fails (ok=false) if the
// store has watchers not owned by a server subscription — those carry
// closures this layer cannot reconstruct.
func (s *Server) Snapshot() (*Snapshot, bool) {
	st := s.st
	snap := &Snapshot{
		Rev:       st.rev,
		Compacted: st.compacted,
		KVs:       make(map[string]KV, len(st.kvs)),
		Hist:      st.hist.Retained(),
		NextWatch: st.nextWatch,
		NextLease: st.nextLease,
		Leases:    make(map[LeaseID]Lease, len(st.leases)),
		LeaseKeys: make(map[LeaseID][]string, len(st.leaseKeys)),
		RetainMax: st.retainMax,
		Now:       st.now,
		ID:        s.id,
		Down:      s.down,
	}
	for k, kv := range st.kvs {
		snap.KVs[k] = kv // Value shared; see type comment
	}
	for id, l := range st.leases {
		snap.Leases[id] = *l
	}
	for id := range st.leaseKeys {
		snap.LeaseKeys[id] = st.leaseKeySet(id)
	}

	owned := make(map[int64]bool, len(s.subs))
	keys := make([]string, 0, len(s.subs))
	byKey := make(map[string]*subscription, len(s.subs))
	for k, sub := range s.subs {
		keys = append(keys, k)
		byKey[k] = sub
		owned[sub.handle.id] = true
	}
	for id := range st.watchers {
		if !owned[id] {
			return nil, false // externally-created watcher; cannot fork
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sub := byKey[k]
		w, ok := st.watchers[sub.handle.id]
		if !ok {
			return nil, false // canceled watcher still referenced; bail out
		}
		snap.Subs = append(snap.Subs, SubSnapshot{
			SubID:     sub.subID,
			Client:    sub.client,
			WatcherID: sub.handle.id,
			Prefix:    w.prefix,
		})
	}
	return snap, true
}

// RestoreServer reconstructs a store server (and its store) from a
// snapshot inside world w. No timer is armed: the kernel re-inserts a
// pending lease tick from its snapshot.
func RestoreServer(w *sim.World, snap *Snapshot) *Server {
	st := &Store{
		rev:       snap.Rev,
		compacted: snap.Compacted,
		kvs:       make(map[string]KV, len(snap.KVs)),
		hist:      history.FromRetained(snap.Hist),
		watchers:  make(map[int64]*watcher),
		nextWatch: snap.NextWatch,
		nextLease: snap.NextLease,
		leases:    make(map[LeaseID]*Lease, len(snap.Leases)),
		leaseKeys: make(map[LeaseID]map[string]bool, len(snap.LeaseKeys)),
		retainMax: snap.RetainMax,
		now:       snap.Now,
	}
	for k, kv := range snap.KVs {
		st.kvs[k] = kv
	}
	for id, l := range snap.Leases {
		cp := l
		st.leases[id] = &cp
	}
	for id, keys := range snap.LeaseKeys {
		set := make(map[string]bool, len(keys))
		for _, k := range keys {
			set[k] = true
		}
		st.leaseKeys[id] = set
	}

	s := &Server{
		id:        snap.ID,
		world:     w,
		st:        st,
		subs:      make(map[string]*subscription, len(snap.Subs)),
		down:      snap.Down,
		leaseTick: 50 * sim.Millisecond,
	}
	s.rpc = sim.NewRPCServer(w.Network(), s.id)
	s.register()
	w.Network().Register(s.id, s)
	w.AddProcess(s)
	s.timers = w.Kernel().Own(string(s.id), s.leaseTickFire)

	for _, sub := range snap.Subs {
		subID, client := sub.SubID, sub.Client
		notify := func(events []history.Event) {
			cp := s.pushSlab.Clone(events)
			s.world.Network().Send(s.id, client, KindWatchPush, &WatchPush{SubID: subID, Events: cp})
		}
		st.watchers[sub.WatcherID] = &watcher{id: sub.WatcherID, prefix: sub.Prefix, notify: notify}
		st.watcherOrder = nil
		s.subs[subKey(client, subID)] = &subscription{
			subID:  subID,
			client: client,
			handle: WatchHandle{id: sub.WatcherID, s: st},
		}
	}
	return s
}
