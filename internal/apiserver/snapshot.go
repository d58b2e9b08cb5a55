package apiserver

import "repro/internal/sim"

// Snapshot captures an apiserver's watch-cache state at a checkpoint.
type Snapshot struct {
	ID    sim.NodeID
	Cfg   Config
	State state
}

// Snapshot captures the server's state.
func (s *Server) Snapshot() *Snapshot {
	s.settle()
	return &Snapshot{ID: s.id, Cfg: s.cfg, State: s.state.clone()}
}

// Restore reconstructs an apiserver from a snapshot inside world w without
// bootstrapping or scheduling: the watch cache and subscriptions come
// straight from the snapshot; the kernel re-inserts a pending resync firing
// from its own. Serving-path acceleration state
// (per-kind key index, decode memo, sub indexes) is rebuildable and not
// part of snapshots.
func Restore(w *sim.World, snap *Snapshot) *Server {
	s := wire(w, snap.ID, snap.Cfg)
	s.state = snap.State.clone()
	s.rebuildKindIndex()
	return s
}
