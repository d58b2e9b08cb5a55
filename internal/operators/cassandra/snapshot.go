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
// events, carried by the kernel snapshot. Cfg is the live configuration:
// SetUpstream changes it.
type Snapshot struct {
	Cfg   Config
	State state
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
	return &Snapshot{Cfg: o.cfg, State: o.state.clone(), Conn: cs, Queue: o.queue.Snapshot()}, true
}

// Restore reconstructs an operator from a snapshot inside world w. Informer
// handlers are re-attached without cache replay; no timers are armed.
func Restore(w *sim.World, snap *Snapshot) *Operator {
	o := wire(w, snap.Cfg)
	o.state = snap.State.clone()
	o.conn = client.RestoreConn(w, snap.Conn)
	o.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(o.reconcile))
	if o.down {
		o.timers.Retire()
	}
	o.crInf, o.podInf, o.pvcInf = o.conn.InformerFor(cluster.KindCassandra),
		o.conn.InformerFor(cluster.KindPod), o.conn.InformerFor(cluster.KindPVC)
	if o.crInf != nil {
		o.crInf.RestoreHandler(controller.EnqueueHandler{Queue: o.queue})
		o.podInf.RestoreHandler(o.podHandler())
	}
	return o
}
