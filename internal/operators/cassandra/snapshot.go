package cassandra

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// Snapshot captures the operator at a checkpoint. Cfg is the live
// configuration: SetUpstream changes it.
type Snapshot struct {
	Cfg   Config
	State state
	Shell controller.ShellSnapshot
}

// Snapshot captures the operator, whose connection must be Quiescent (a pending
// Create/Update/Get continuation cannot be reconstructed).
func (o *Operator) Snapshot() *Snapshot {
	return &Snapshot{Cfg: o.cfg, State: o.state.clone(), Shell: o.Shell.Snapshot()}
}

// Restore reconstructs an operator from a snapshot inside world w.
func Restore(w *sim.World, snap *Snapshot) *Operator {
	o := &Operator{cfg: snap.Cfg, state: snap.State.clone()}
	o.Shell.Restore(w, o, o.spec(), snap.Shell)
	return o
}
