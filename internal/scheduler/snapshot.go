package scheduler

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// Snapshot captures the scheduler at a checkpoint.
type Snapshot struct {
	Cfg   Config
	State state
	Shell controller.ShellSnapshot
}

// Snapshot captures the scheduler, whose connection must be Quiescent (a pending
// bind Get/Update continuation cannot be reconstructed).
func (s *Scheduler) Snapshot() *Snapshot {
	return &Snapshot{Cfg: s.cfg, State: s.state.clone(), Shell: s.Shell.Snapshot()}
}

// Restore reconstructs a scheduler from a snapshot inside world w.
func Restore(w *sim.World, snap *Snapshot) *Scheduler {
	s := &Scheduler{cfg: snap.Cfg, state: snap.State.clone()}
	s.Shell.Restore(w, s, s.spec(), snap.Shell)
	return s
}
