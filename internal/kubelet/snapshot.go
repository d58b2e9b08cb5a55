package kubelet

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// Snapshot captures a kubelet (and the host it manages) at a checkpoint.
// Container values are plain structs, so copying the host's map copies
// them.
type Snapshot struct {
	Cfg   Config
	State state
	Host  hostState
	Shell controller.ShellSnapshot
}

// Snapshot captures the kubelet, whose connection must be Quiescent — no call in
// flight, the SafeRestartSync quorum list included: its continuation
// closure cannot be reconstructed.
func (k *Kubelet) Snapshot() *Snapshot {
	return &Snapshot{Cfg: k.cfg, State: k.state, Host: k.host.hostState.clone(), Shell: k.Shell.Snapshot()}
}

// Restore reconstructs a kubelet (with a fresh Host carrying the captured
// containers) inside world w.
func Restore(w *sim.World, snap *Snapshot) *Kubelet {
	host := &Host{Name: snap.Cfg.NodeName, hostState: snap.Host.clone()}
	host.changed()
	k := &Kubelet{cfg: snap.Cfg, host: host, state: snap.State}
	k.beat = k.beatOn
	k.Shell.Restore(w, k, k.spec(), snap.Shell)
	return k
}
