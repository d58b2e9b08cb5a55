// Package controller provides the machinery shared by every simulated
// component that holds an API connection — the analog of
// controller-runtime: the Shell that binds a component's declared informers,
// Reconcile function and timers into one crash/restart/capture/restore
// lifecycle, and the deduplicating, rate-limited work queue it feeds.
package controller

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Result tells the queue what to do after a reconcile.
type Result struct {
	// Requeue re-enqueues the key after RequeueAfter (or the queue's
	// default backoff when zero).
	Requeue      bool
	RequeueAfter sim.Duration
}

// Reconciler processes one key at a time. Returning an error requeues the
// key with exponential backoff.
type Reconciler interface {
	Reconcile(key string) (Result, error)
}

// ReconcilerFunc adapts a function to Reconciler.
type ReconcilerFunc func(key string) (Result, error)

// Reconcile calls f(key).
func (f ReconcilerFunc) Reconcile(key string) (Result, error) { return f(key) }

// dequeueDelay is the pause between dequeues (models work latency and rate
// limiting).
const dequeueDelay = sim.Millisecond

// QueueConfig tunes a work queue.
type QueueConfig struct {
	// BaseBackoff is the initial retry backoff after a failed reconcile;
	// it doubles per consecutive failure up to MaxBackoff.
	BaseBackoff sim.Duration
	MaxBackoff  sim.Duration
}

// DefaultQueueConfig returns production-like settings.
func DefaultQueueConfig() QueueConfig {
	return QueueConfig{
		BaseBackoff: 5 * sim.Millisecond,
		MaxBackoff:  500 * sim.Millisecond,
	}
}

// Queue is a deduplicating work queue driven by the simulation kernel.
// A key present in the queue is not added twice; a key being processed is
// re-queued if re-added during processing (client-go semantics).
type Queue struct {
	cfg    QueueConfig
	rec    Reconciler
	timers *sim.Owner      // addafter and process; a queue lives for one boot, and Stop retires them
	set    map[string]bool // the keys in order: an index, rebuilt from it on restore
	queueState
}

// queueState is everything a queue carries from one event to the next.
type queueState struct {
	order    []string
	failures map[string]int
	running  bool
	stopped  bool
}

func (s queueState) clone() queueState {
	s.order = slices.Clone(s.order)
	s.failures = sim.CloneMap(s.failures)
	return s
}

// NewQueue creates a queue that feeds keys to rec. Its timers are armed
// under the name owner, which no other live queue or component may hold.
func NewQueue(k *sim.Kernel, owner string, cfg QueueConfig, rec Reconciler) *Queue {
	q := &Queue{cfg: cfg, rec: rec, set: make(map[string]bool)}
	q.failures = make(map[string]int)
	q.timers = k.Own(owner, q.fire)
	return q
}

// fire runs a queue timer.
func (q *Queue) fire(tag sim.EventTag) {
	switch tag.Kind {
	case "addafter":
		q.Add(tag.Key)
	case "process":
		q.processNext()
	}
}

// Add enqueues key if not already queued.
func (q *Queue) Add(key string) {
	if q.stopped || q.set[key] {
		return
	}
	q.set[key] = true
	q.order = append(q.order, key)
	q.kick()
}

// AddAfter enqueues key after a delay.
func (q *Queue) AddAfter(key string, d sim.Duration) {
	q.timers.After(d, sim.EventTag{Kind: "addafter", Key: key})
}

// Stop permanently halts processing (crash semantics): the queue's pending
// timers still come due, and run nothing.
func (q *Queue) Stop() {
	q.stopped = true
	q.timers.Retire()
}

func (q *Queue) kick() {
	if q.running || q.stopped || len(q.order) == 0 {
		return
	}
	q.running = true
	q.timers.After(dequeueDelay, sim.EventTag{Kind: "process"})
}

func (q *Queue) processNext() {
	q.running = false
	if q.stopped || len(q.order) == 0 {
		return
	}
	key := q.order[0]
	q.order = q.order[1:]
	delete(q.set, key)

	res, err := q.rec.Reconcile(key)
	if q.stopped {
		return
	}
	switch {
	case err != nil:
		q.failures[key]++
		backoff := q.cfg.BaseBackoff
		for i := 1; i < q.failures[key]; i++ {
			backoff *= 2
			if backoff >= q.cfg.MaxBackoff {
				backoff = q.cfg.MaxBackoff
				break
			}
		}
		q.AddAfter(key, backoff)
	case res.Requeue:
		delete(q.failures, key)
		d := res.RequeueAfter
		if d == 0 {
			d = q.cfg.BaseBackoff
		}
		q.AddAfter(key, d)
	default:
		delete(q.failures, key)
	}
	q.kick()
}

// EnqueueHandler is an informer event handler that maps every object event
// to its name on a queue — the standard controller wiring.
type EnqueueHandler struct{ Queue *Queue }

// OnAdd implements client.EventHandler.
func (h EnqueueHandler) OnAdd(obj *cluster.Object) { h.Queue.Add(obj.Meta.Name) }

// OnUpdate implements client.EventHandler.
func (h EnqueueHandler) OnUpdate(_, newObj *cluster.Object) { h.Queue.Add(newObj.Meta.Name) }

// OnDelete implements client.EventHandler.
func (h EnqueueHandler) OnDelete(obj *cluster.Object) { h.Queue.Add(obj.Meta.Name) }
