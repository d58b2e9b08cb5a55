package controller

import "repro/internal/sim"

// QueueSnapshot captures a work queue at a checkpoint. Pending AddAfter
// and process timers are kernel events armed under the queue's owner name;
// the kernel snapshot carries them, not this one.
type QueueSnapshot struct {
	Cfg   QueueConfig
	Owner string
	State queueState
}

// Snapshot captures the queue's state.
func (q *Queue) Snapshot() *QueueSnapshot {
	return &QueueSnapshot{Cfg: q.cfg, Owner: q.timers.Name(), State: q.queueState.clone()}
}

// RestoreQueue reconstructs a queue from a snapshot, feeding keys to rec.
// No timers are armed: the kernel re-inserts a captured in-flight "process"
// event under the restored queue's owner name. A stopped queue comes back
// retired.
func RestoreQueue(k *sim.Kernel, snap *QueueSnapshot, rec Reconciler) *Queue {
	q := NewQueue(k, snap.Owner, snap.Cfg, rec)
	q.queueState = snap.State.clone()
	for _, key := range q.order {
		q.set[key] = true
	}
	if q.stopped {
		q.timers.Retire()
	}
	return q
}
