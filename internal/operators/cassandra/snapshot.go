package cassandra

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Snapshot captures the operator at a checkpoint. The informer caches live
// inside the connection snapshot; the queue's and the informers' pending
// timers and the operator's own resync/drain/awaitgone timers are kernel
// events, carried by the kernel snapshot.
type Snapshot struct {
	Cfg   Config
	Down  bool
	Epoch uint64
	UIDs  int

	Draining       map[string]bool
	SawTerminating map[string]bool

	PodCreates     int
	PodDeletes     int
	PVCCreates     int
	PVCDeletes     int
	Decommissions  int
	WrongDecomm    int
	StuckReconcile int

	Conn  *client.ConnSnapshot
	Queue *controller.QueueSnapshot
}

// Snapshot captures the operator's state. It fails (ok=false) when an RPC
// call is in flight (a pending Create/Update/Get continuation cannot be
// reconstructed).
func (o *Operator) Snapshot() (*Snapshot, bool) {
	cs, ok := o.conn.Snapshot()
	if !ok {
		return nil, false
	}
	snap := &Snapshot{
		Cfg:            o.cfg,
		Down:           o.down,
		Epoch:          o.epoch,
		UIDs:           o.uids.Counter(),
		Draining:       make(map[string]bool, len(o.draining)),
		SawTerminating: make(map[string]bool, len(o.sawTerminating)),
		PodCreates:     o.PodCreates,
		PodDeletes:     o.PodDeletes,
		PVCCreates:     o.PVCCreates,
		PVCDeletes:     o.PVCDeletes,
		Decommissions:  o.Decommissions,
		WrongDecomm:    o.WrongDecomm,
		StuckReconcile: o.StuckReconcile,
		Conn:           cs,
		Queue:          o.queue.Snapshot(),
	}
	for m, v := range o.draining {
		snap.Draining[m] = v
	}
	for m, v := range o.sawTerminating {
		snap.SawTerminating[m] = v
	}
	return snap, true
}

// Restore reconstructs an operator from a snapshot inside world w. Informer
// handlers are re-attached without cache replay; no timers are armed.
func Restore(w *sim.World, snap *Snapshot) *Operator {
	o := &Operator{
		id:             OperatorID,
		world:          w,
		cfg:            snap.Cfg,
		down:           snap.Down,
		epoch:          snap.Epoch,
		uids:           cluster.NewUIDGen("cass-op"),
		draining:       make(map[string]bool, len(snap.Draining)),
		sawTerminating: make(map[string]bool, len(snap.SawTerminating)),
		PodCreates:     snap.PodCreates,
		PodDeletes:     snap.PodDeletes,
		PVCCreates:     snap.PVCCreates,
		PVCDeletes:     snap.PVCDeletes,
		Decommissions:  snap.Decommissions,
		WrongDecomm:    snap.WrongDecomm,
		StuckReconcile: snap.StuckReconcile,
	}
	o.uids.SetCounter(snap.UIDs)
	for m, v := range snap.Draining {
		o.draining[m] = v
	}
	for m, v := range snap.SawTerminating {
		o.sawTerminating[m] = v
	}
	w.Network().Register(o.id, o)
	w.AddProcess(o)
	o.timers = w.Kernel().Own(string(o.id), o.fire)
	o.conn = client.RestoreConn(w, snap.Conn)
	o.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(o.reconcile))
	o.crInf, o.podInf, o.pvcInf = o.conn.InformerFor(cluster.KindCassandra),
		o.conn.InformerFor(cluster.KindPod), o.conn.InformerFor(cluster.KindPVC)
	if o.crInf != nil {
		o.crInf.RestoreHandler(controller.EnqueueHandler{Queue: o.queue})
		o.podInf.RestoreHandler(o.podHandler())
	}
	return o
}
