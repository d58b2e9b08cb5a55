package kubelet

import (
	"fmt"

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

	Conn        *client.ConnSnapshot
	HasInformer bool
	InformerSub uint64

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
	if k.informer != nil {
		snap.HasInformer = true
		snap.InformerSub = k.informer.SubID()
	}
	return snap, true
}

// Restore reconstructs a kubelet (with a fresh Host carrying the captured
// containers) inside world w. No timers are armed — pending kernel events
// are re-installed by the restore orchestration via Rearm — and the
// informer's event handler is re-attached without replaying the cache.
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
	k.conn = client.RestoreConn(w, snap.Conn)
	if snap.HasInformer {
		inf, ok := k.conn.Informer(snap.InformerSub)
		if !ok {
			panic(fmt.Sprintf("kubelet: restore: informer sub %d missing from conn snapshot", snap.InformerSub))
		}
		// The informer is non-nil in the snapshot, so no crash happened
		// since the boot that created it: the handler's epoch is the
		// captured epoch.
		epoch := snap.Epoch
		inf.RestoreHandler(client.HandlerFuncs{
			AddFunc:    func(*cluster.Object) { k.scheduleSyncSoon(epoch) },
			UpdateFunc: func(_, _ *cluster.Object) { k.scheduleSyncSoon(epoch) },
			DeleteFunc: func(*cluster.Object) { k.scheduleSyncSoon(epoch) },
		})
		k.informer = inf
	}
	return k
}

// Rearm returns the callback for a pending kernel event owned by this
// kubelet, identified by its snapshot tag. Informer-owned tags are routed
// through the connection.
func (k *Kubelet) Rearm(tag sim.EventTag) (func(), error) {
	switch tag.Kind {
	case "heartbeat":
		epoch := tag.Epoch
		return func() { k.heartbeatFire(epoch) }, nil
	case "sync":
		epoch := tag.Epoch
		return func() { k.syncFire(epoch) }, nil
	case "syncsoon":
		epoch := tag.Epoch
		return func() { k.syncSoonFire(epoch) }, nil
	case "inf-liveness", "inf-relist":
		return k.conn.RearmInformer(tag)
	default:
		return nil, fmt.Errorf("kubelet: unknown pending event kind %q for %s", tag.Kind, k.id)
	}
}
