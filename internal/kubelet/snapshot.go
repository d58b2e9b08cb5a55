package kubelet

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Snapshot captures a kubelet (and the host it manages) at a checkpoint.
// Container values are plain structs, so the Running map is deep-copied;
// the informer cache inside Conn shares object pointers copy-on-write (see
// client.InformerSnapshot).
type Snapshot struct {
	Cfg        Config
	Running    map[string]Container
	UIDCounter int

	Conn *client.ConnSnapshot

	Down             bool
	Epoch            uint64
	APIIdx           int
	RestartPending   bool
	SafeSyncInFlight bool
	MinTrustRev      int64

	Starts int
	Stops  int
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
	snap := &Snapshot{
		Cfg:              k.cfg,
		Running:          make(map[string]Container, len(k.host.running)),
		UIDCounter:       k.uids.Counter(),
		Conn:             cs,
		Down:             k.down,
		Epoch:            k.epoch,
		APIIdx:           k.apiIdx,
		RestartPending:   k.restartPending,
		SafeSyncInFlight: k.safeSyncInFlight,
		MinTrustRev:      k.minTrustRev,
		Starts:           k.Starts,
		Stops:            k.Stops,
	}
	for name, c := range k.host.running {
		snap.Running[name] = c
	}
	return snap, true
}

// Restore reconstructs a kubelet (with a fresh Host carrying the captured
// containers) inside world w. No timers are armed — the kernel re-inserts
// the pending ones from its snapshot — and the informer's event handler is
// re-attached without replaying the cache.
func Restore(w *sim.World, snap *Snapshot) *Kubelet {
	host := NewHost(snap.Cfg.NodeName)
	for name, c := range snap.Running {
		host.setContainer(name, c)
	}
	k := &Kubelet{
		id:               NodeID(snap.Cfg.NodeName),
		world:            w,
		cfg:              snap.Cfg,
		host:             host,
		uids:             cluster.NewUIDGen("kubelet-" + snap.Cfg.NodeName),
		down:             snap.Down,
		epoch:            snap.Epoch,
		apiIdx:           snap.APIIdx,
		restartPending:   snap.RestartPending,
		safeSyncInFlight: snap.SafeSyncInFlight,
		minTrustRev:      snap.MinTrustRev,
		Starts:           snap.Starts,
		Stops:            snap.Stops,
	}
	k.uids.SetCounter(snap.UIDCounter)
	w.Network().Register(k.id, k)
	w.AddProcess(k)
	k.timers = w.Kernel().Own(string(k.id), k.fire)
	k.conn = client.RestoreConn(w, snap.Conn)
	if k.informer = k.conn.InformerFor(cluster.KindPod); k.informer != nil {
		// The connection still has its informer, so no crash happened since
		// the boot that created it: the handler's epoch is the captured one.
		k.informer.RestoreHandler(k.podHandler(snap.Epoch))
	}
	return k
}
