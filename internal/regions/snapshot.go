package regions

import (
	"repro/internal/client"
	"repro/internal/sim"
)

// This file gives the region service a snapshot/restore pair. Region
// servers hold only their owned set; the manager holds its connection and
// metrics. The manager's transient move timers (the CAS-retry and the
// close-before-open delay) are anonymous closures over in-flight
// transitions — they cannot be reconstructed from a snapshot, so they stay
// untagged and a capture attempted mid-move simply slides past the window.

// ServerSnapshot captures one region server.
type ServerSnapshot struct {
	Owned map[string]bool
	Down  bool
}

// Snapshot captures the server's state (always possible: no connection, no
// timers).
func (s *RegionServer) Snapshot() *ServerSnapshot {
	snap := &ServerSnapshot{Owned: make(map[string]bool, len(s.owned)), Down: s.down}
	for r, v := range s.owned {
		snap.Owned[r] = v
	}
	return snap
}

// RestoreServer reconstructs a region server named name from a snapshot
// inside world w.
func RestoreServer(w *sim.World, name string, snap *ServerSnapshot) *RegionServer {
	s := &RegionServer{
		id:    ServerID(name),
		world: w,
		owned: make(map[string]bool, len(snap.Owned)),
		down:  snap.Down,
	}
	for r, serve := range snap.Owned {
		s.setOwned(r, serve)
	}
	w.Network().Register(s.id, s)
	w.AddProcess(s)
	return s
}

// ManagerSnapshot captures the assignment manager at a checkpoint.
type ManagerSnapshot struct {
	Cfg         ManagerConfig
	Down        bool
	Epoch       uint64
	Transitions int
	Succeeded   int
	CASFailures int
	Retries     int

	Conn *client.ConnSnapshot
}

// Snapshot captures the manager's state. It fails (ok=false) when an RPC
// call is in flight (an in-flight move's continuation cannot be
// reconstructed).
func (m *Manager) Snapshot() (*ManagerSnapshot, bool) {
	cs, ok := m.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &ManagerSnapshot{
		Cfg:         m.cfg,
		Down:        m.down,
		Epoch:       m.epoch,
		Transitions: m.Transitions,
		Succeeded:   m.Succeeded,
		CASFailures: m.CASFailures,
		Retries:     m.Retries,
		Conn:        cs,
	}, true
}

// RestoreManager reconstructs the assignment manager from a snapshot
// inside world w. The manager runs no informers and owns no timers of its
// own: its move timers are closures, and a capture waits them out.
func RestoreManager(w *sim.World, snap *ManagerSnapshot) *Manager {
	m := &Manager{
		id:          ManagerID,
		world:       w,
		cfg:         snap.Cfg,
		down:        snap.Down,
		epoch:       snap.Epoch,
		Transitions: snap.Transitions,
		Succeeded:   snap.Succeeded,
		CASFailures: snap.CASFailures,
		Retries:     snap.Retries,
	}
	w.Network().Register(m.id, m)
	w.AddProcess(m)
	m.conn = client.RestoreConn(w, snap.Conn)
	return m
}
