package kubelet

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Snapshot captures a kubelet (and the host it manages) at a checkpoint.
// Container values are plain structs, so copying the host's map copies
// them; the informer cache inside Conn shares object pointers (see
// client.InformerSnapshot).
type Snapshot struct {
	Cfg   Config
	State state
	Host  hostState
	Conn  *client.ConnSnapshot
}

// Snapshot captures the kubelet's state. It fails (ok=false) when the
// kubelet's connection has an RPC call in flight — that includes the
// SafeRestartSync quorum list, whose continuation closure cannot be
// reconstructed.
func (k *Kubelet) Snapshot() (*Snapshot, bool) {
	cs, ok := k.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &Snapshot{Cfg: k.cfg, State: k.state, Host: k.host.hostState.clone(), Conn: cs}, true
}

// Restore reconstructs a kubelet (with a fresh Host carrying the captured
// containers) inside world w. No timers are armed — the kernel re-inserts
// the pending ones from its snapshot — and the informer's event handler is
// re-attached without replaying the cache.
func Restore(w *sim.World, snap *Snapshot) *Kubelet {
	host := &Host{Name: snap.Cfg.NodeName, hostState: snap.Host.clone()}
	host.changed()
	k := wire(w, host, snap.Cfg)
	k.state = snap.State
	k.conn = client.RestoreConn(w, snap.Conn)
	if k.down {
		k.timers.Retire()
	}
	if k.informer = k.conn.InformerFor(cluster.KindPod); k.informer != nil {
		k.informer.RestoreHandler(k.podHandler())
	}
	return k
}
