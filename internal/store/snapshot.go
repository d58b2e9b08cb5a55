package store

import (
	"slices"

	"repro/internal/sim"
)

// Snapshot captures a Store plus its Server wrapper at a checkpoint.
type Snapshot struct {
	ID    sim.NodeID
	Store storeState
	Subs  []SubSnapshot // sorted by subscription key
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
	snap := &Snapshot{ID: s.id, Store: st.storeState.clone()}

	owned := make(map[int64]bool, len(s.subs))
	keys := make([]string, 0, len(s.subs))
	for k, sub := range s.subs {
		keys = append(keys, k)
		owned[sub.handle.id] = true
	}
	for id := range st.watchers {
		if !owned[id] {
			return nil, false // externally-created watcher; cannot fork
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		sub := s.subs[k]
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
// snapshot inside world w.
func RestoreServer(w *sim.World, snap *Snapshot) *Server {
	st := &Store{watchers: make(map[int64]*watcher), storeState: snap.Store.clone()}
	s := NewServer(w, snap.ID, st)
	for _, sub := range snap.Subs {
		st.watchers[sub.WatcherID] = &watcher{prefix: sub.Prefix, notify: s.pushTo(sub.Client, sub.SubID)}
		s.subs[subKey(sub.Client, sub.SubID)] = &subscription{
			subID:  sub.SubID,
			client: sub.Client,
			handle: WatchHandle{id: sub.WatcherID, s: st},
		}
	}
	return s
}
