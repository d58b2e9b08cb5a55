package scheduler

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Snapshot captures the scheduler at a checkpoint. The informer caches
// live inside the connection snapshot; the queue's and the informers'
// pending timers are kernel events, carried by the kernel snapshot (the
// scheduler has no timer of its own).
type Snapshot struct {
	Cfg   Config
	State state
	Conn  *client.ConnSnapshot
	Queue *controller.QueueSnapshot
}

// Snapshot captures the scheduler's state. It fails (ok=false) when an RPC
// call is in flight (a pending bind Get/Update continuation cannot be
// reconstructed).
func (s *Scheduler) Snapshot() (*Snapshot, bool) {
	cs, ok := s.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &Snapshot{Cfg: s.cfg, State: s.state.clone(), Conn: cs, Queue: s.queue.Snapshot()}, true
}

// Restore reconstructs a scheduler from a snapshot inside world w. Informer
// handlers are re-attached without cache replay; no timers are armed.
func Restore(w *sim.World, snap *Snapshot) *Scheduler {
	s := wire(w, snap.Cfg)
	s.state = snap.State.clone()
	s.conn = client.RestoreConn(w, snap.Conn)
	s.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(s.reconcile))
	s.nodeInf, s.podInf = s.conn.InformerFor(cluster.KindNode), s.conn.InformerFor(cluster.KindPod)
	if s.nodeInf != nil {
		s.nodeInf.RestoreHandler(s.nodeHandler())
		s.podInf.RestoreHandler(controller.EnqueueHandler{Queue: s.queue})
	}
	return s
}
