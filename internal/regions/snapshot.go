package regions

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// This file gives the region service a snapshot/restore pair. Region
// servers hold only their owned set; the manager holds its connection and
// metrics. The manager's transient move timers (the CAS-retry and the
// close-before-open delay) are anonymous closures over in-flight
// transitions — they cannot be reconstructed from a snapshot, so they stay
// untagged and a capture attempted mid-move simply slides past the window.

// ServerSnapshot captures one region server.
type ServerSnapshot struct{ State serverState }

// Snapshot captures the server's state (always possible: no connection, no
// timers).
func (s *RegionServer) Snapshot() *ServerSnapshot {
	return &ServerSnapshot{State: s.serverState.clone()}
}

// RestoreServer reconstructs a region server named name from a snapshot
// inside world w.
func RestoreServer(w *sim.World, name string, snap *ServerSnapshot) *RegionServer {
	s := NewRegionServer(w, name)
	s.serverState = snap.State.clone()
	s.gen.Bump()
	return s
}

// ManagerSnapshot captures the assignment manager at a checkpoint.
type ManagerSnapshot struct {
	Cfg   ManagerConfig
	State managerState
	Shell controller.ShellSnapshot
}

// Snapshot captures the manager, whose connection must be Quiescent (an
// in-flight move's continuation cannot be reconstructed).
func (m *Manager) Snapshot() *ManagerSnapshot {
	return &ManagerSnapshot{Cfg: m.cfg, State: m.managerState, Shell: m.Shell.Snapshot()}
}

// RestoreManager reconstructs the assignment manager from a snapshot
// inside world w.
func RestoreManager(w *sim.World, snap *ManagerSnapshot) *Manager {
	m := &Manager{cfg: snap.Cfg, managerState: snap.State}
	m.Shell.Restore(w, m, m.spec(), snap.Shell)
	return m
}
