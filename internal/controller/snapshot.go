package controller

import "repro/internal/sim"

// QueueSnapshot captures a work queue at a checkpoint. Pending AddAfter
// and process timers are kernel events armed under the queue's owner name;
// the kernel snapshot carries them, not this one.
type QueueSnapshot struct {
	Cfg       QueueConfig
	Owner     string
	Order     []string
	Failures  map[string]int
	Running   bool
	Stopped   bool
	Processed int
	Errors    int
}

// Snapshot captures the queue's state.
func (q *Queue) Snapshot() *QueueSnapshot {
	s := &QueueSnapshot{
		Cfg:       q.cfg,
		Owner:     q.timers.Name(),
		Order:     append([]string(nil), q.order...),
		Failures:  make(map[string]int, len(q.failures)),
		Running:   q.running,
		Stopped:   q.stopped,
		Processed: q.Processed,
		Errors:    q.Errors,
	}
	for k, v := range q.failures {
		s.Failures[k] = v
	}
	return s
}

// RestoreQueue reconstructs a queue from a snapshot, feeding keys to rec.
// No timers are armed: the kernel re-inserts a captured in-flight "process"
// event under the restored queue's owner name. A stopped queue comes back
// retired.
func RestoreQueue(k *sim.Kernel, snap *QueueSnapshot, rec Reconciler) *Queue {
	q := &Queue{
		cfg:       snap.Cfg,
		rec:       rec,
		order:     append([]string(nil), snap.Order...),
		set:       make(map[string]bool, len(snap.Order)),
		failures:  make(map[string]int, len(snap.Failures)),
		running:   snap.Running,
		stopped:   snap.Stopped,
		Processed: snap.Processed,
		Errors:    snap.Errors,
	}
	for _, key := range snap.Order {
		q.set[key] = true
	}
	for key, n := range snap.Failures {
		q.failures[key] = n
	}
	q.timers = k.Own(snap.Owner, q.fire)
	if q.stopped {
		q.timers.Retire()
	}
	return q
}
