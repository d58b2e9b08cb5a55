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
	Cfg          Config
	Down         bool
	Epoch        uint64
	DeadNodes    map[string]bool
	Binds        int
	BindFailures int

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
	snap := &Snapshot{
		Cfg:          s.cfg,
		Down:         s.down,
		Epoch:        s.epoch,
		DeadNodes:    make(map[string]bool, len(s.deadNodes)),
		Binds:        s.Binds,
		BindFailures: s.BindFailures,
		Conn:         cs,
		Queue:        s.queue.Snapshot(),
	}
	for n, v := range s.deadNodes {
		snap.DeadNodes[n] = v
	}
	return snap, true
}

// Restore reconstructs a scheduler from a snapshot inside world w. Informer
// handlers are re-attached without cache replay; no timers are armed.
func Restore(w *sim.World, snap *Snapshot) *Scheduler {
	s := &Scheduler{
		id:           ID,
		world:        w,
		cfg:          snap.Cfg,
		down:         snap.Down,
		epoch:        snap.Epoch,
		deadNodes:    make(map[string]bool, len(snap.DeadNodes)),
		Binds:        snap.Binds,
		BindFailures: snap.BindFailures,
	}
	for n, v := range snap.DeadNodes {
		s.deadNodes[n] = v
	}
	w.Network().Register(s.id, s)
	w.AddProcess(s)
	s.conn = client.RestoreConn(w, snap.Conn)
	s.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(s.reconcile))
	s.nodeInf, s.podInf = s.conn.InformerFor(cluster.KindNode), s.conn.InformerFor(cluster.KindPod)
	if s.nodeInf != nil {
		s.nodeInf.RestoreHandler(s.nodeHandler())
		s.podInf.RestoreHandler(controller.EnqueueHandler{Queue: s.queue})
	}
	return s
}
