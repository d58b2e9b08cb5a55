// Package trace records a reference execution of the simulated
// infrastructure: which watch notifications were delivered to which
// component, which kinds each component subscribes to, which objects each
// component wrote, and the committed ground-truth history.
//
// The perturbation planner (internal/core) mines this trace: because the
// simulation is deterministic, an event observed at occurrence k in the
// reference run appears again at occurrence k in a re-run with the same
// seed — up to the point where a perturbation makes the runs diverge. The
// trace is therefore the "causal relationships between events" substrate
// the paper's Section 7 calls for.
package trace

import (
	"sort"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/store"
)

// Delivery is one typed watch event delivered to a component.
type Delivery struct {
	From      sim.NodeID
	To        sim.NodeID
	Time      sim.Time
	Revision  int64
	Kind      cluster.Kind
	Name      string
	EventType apiserver.EventType
	// Terminating records whether the delivered object carried a
	// DeletionTimestamp — deletion-adjacent events are the highest-value
	// perturbation targets.
	Terminating bool
	// Occurrence is the 1-based count of deliveries matching
	// (To, Kind, Name, EventType) up to and including this one — the
	// replay-stable coordinate used by gap plans.
	Occurrence int
}

// Write is one mutating RPC issued by a component.
type Write struct {
	From   sim.NodeID
	Time   sim.Time
	Method string
	Kind   cluster.Kind
	Name   string
}

// ListOp is one full list (relist) issued by a component: an apiserver List
// RPC from a client, or a Range against the store (an apiserver bootstrap
// relist). Relists are the cost the paper's §4.2 warns compaction forces on
// watchers; only how many there were is read, to expose relist storms.
type ListOp struct{}

// Trace is the recorded reference execution.
type Trace struct {
	Deliveries []Delivery
	Writes     []Write
	Commits    []history.Event
	Lists      []ListOp
	// Subscriptions maps component -> object kinds it watches.
	Subscriptions map[sim.NodeID]map[cluster.Kind]bool
	// DroppedPushes counts watch-push messages dropped in flight to each
	// component (flaky links, partitions) — deliveries the component never saw.
	DroppedPushes map[sim.NodeID]int
	// DuplicatePushes counts watch-push messages delivered more than once to
	// a component (same network sequence seen again).
	DuplicatePushes map[sim.NodeID]int

	occ      map[occKey]int
	seenPush map[seenKey]bool
}

type seenKey struct {
	to  sim.NodeID
	seq uint64
}

type occKey struct {
	to   sim.NodeID
	kind cluster.Kind
	name string
	typ  apiserver.EventType
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{
		Subscriptions:   make(map[sim.NodeID]map[cluster.Kind]bool),
		DroppedPushes:   make(map[sim.NodeID]int),
		DuplicatePushes: make(map[sim.NodeID]int),
		occ:             make(map[occKey]int),
		seenPush:        make(map[seenKey]bool),
	}
}

// Fork returns a copy-on-write copy of the trace for a forked run: the
// event slices are shared with capacity clamped to length (appends in
// either run reallocate), while the mutable maps — subscriptions,
// drop/duplicate counters, occurrence and seen-push trackers — are
// deep-copied so the original and the fork diverge independently.
func (t *Trace) Fork() *Trace {
	f := &Trace{
		Deliveries:      t.Deliveries[:len(t.Deliveries):len(t.Deliveries)],
		Writes:          t.Writes[:len(t.Writes):len(t.Writes)],
		Commits:         t.Commits[:len(t.Commits):len(t.Commits)],
		Lists:           t.Lists[:len(t.Lists):len(t.Lists)],
		Subscriptions:   make(map[sim.NodeID]map[cluster.Kind]bool, len(t.Subscriptions)),
		DroppedPushes:   make(map[sim.NodeID]int, len(t.DroppedPushes)),
		DuplicatePushes: make(map[sim.NodeID]int, len(t.DuplicatePushes)),
		occ:             make(map[occKey]int, len(t.occ)),
		seenPush:        make(map[seenKey]bool, len(t.seenPush)),
	}
	for id, kinds := range t.Subscriptions {
		inner := make(map[cluster.Kind]bool, len(kinds))
		for k, v := range kinds {
			inner[k] = v
		}
		f.Subscriptions[id] = inner
	}
	for id, n := range t.DroppedPushes {
		f.DroppedPushes[id] = n
	}
	for id, n := range t.DuplicatePushes {
		f.DuplicatePushes[id] = n
	}
	for k, v := range t.occ {
		f.occ[k] = v
	}
	for k, v := range t.seenPush {
		f.seenPush[k] = v
	}
	return f
}

// NewRecorderFor creates a recorder that appends to an existing trace
// (restore path: the forked run continues the prefix's recording).
func NewRecorderFor(t *Trace) *Recorder { return &Recorder{T: t} }

// Recorder attaches a Trace to a world's network (as an Observer) and to a
// store (commit hook).
type Recorder struct {
	T *Trace
}

// NewRecorder creates a recorder feeding a fresh trace.
func NewRecorder() *Recorder { return &Recorder{T: New()} }

// Attach hooks the recorder into the network and store.
func (r *Recorder) Attach(net *sim.Network, st *store.Store) {
	net.AddObserver(r)
	st.AddNotifyHook(func(events []history.Event) {
		r.T.Commits = append(r.T.Commits, events...)
	})
}

// OnSend implements sim.Observer: it records subscriptions and writes.
func (r *Recorder) OnSend(m *sim.Message) {
	if m.Method == nil || m.Call != 0 {
		return // not an RPC request
	}
	switch body := m.Payload.(type) {
	case *apiserver.WatchRequest:
		subs := r.T.Subscriptions[m.From]
		if subs == nil {
			subs = make(map[cluster.Kind]bool)
			r.T.Subscriptions[m.From] = subs
		}
		subs[body.Kind] = true
	case *apiserver.CreateRequest:
		r.T.Writes = append(r.T.Writes, Write{
			From: m.From, Time: m.SentAt, Method: m.Method.Name,
			Kind: body.Object.Meta.Kind, Name: body.Object.Meta.Name,
		})
	case *apiserver.UpdateRequest:
		r.T.Writes = append(r.T.Writes, Write{
			From: m.From, Time: m.SentAt, Method: m.Method.Name,
			Kind: body.Object.Meta.Kind, Name: body.Object.Meta.Name,
		})
	case *apiserver.DeleteRequest:
		r.T.Writes = append(r.T.Writes, Write{
			From: m.From, Time: m.SentAt, Method: m.Method.Name,
			Kind: body.Kind, Name: body.Name,
		})
	case *apiserver.ListRequest, *store.RangeRequest:
		r.T.Lists = append(r.T.Lists, ListOp{})
	}
}

// OnDeliver implements sim.Observer: it records typed watch deliveries.
func (r *Recorder) OnDeliver(m *sim.Message) {
	push, ok := m.Payload.(*apiserver.WatchPushMsg)
	if !ok {
		return
	}
	sk := seenKey{to: m.To, seq: m.Seq}
	if r.T.seenPush[sk] {
		// Same network message delivered again: a duplicated link. The
		// duplicate's events are still appended below — the component really
		// did observe them twice.
		r.T.DuplicatePushes[m.To]++
	}
	r.T.seenPush[sk] = true
	for _, ev := range push.Events {
		if ev.Object == nil {
			continue
		}
		// A delivery implies a subscription, even one established before
		// the recorder attached.
		subs := r.T.Subscriptions[m.To]
		if subs == nil {
			subs = make(map[cluster.Kind]bool)
			r.T.Subscriptions[m.To] = subs
		}
		subs[ev.Object.Meta.Kind] = true

		key := occKey{to: m.To, kind: ev.Object.Meta.Kind, name: ev.Object.Meta.Name, typ: ev.Type}
		r.T.occ[key]++
		r.T.Deliveries = append(r.T.Deliveries, Delivery{
			From:        m.From,
			To:          m.To,
			Time:        m.SentAt,
			Revision:    ev.Revision,
			Kind:        ev.Object.Meta.Kind,
			Name:        ev.Object.Meta.Name,
			EventType:   ev.Type,
			Terminating: ev.Object.Meta.DeletionTimestamp != 0,
			Occurrence:  r.T.occ[key],
		})
	}
}

// OnDrop implements sim.Observer: it counts lost watch pushes per receiver.
func (r *Recorder) OnDrop(m *sim.Message, reason string) {
	if _, ok := m.Payload.(*apiserver.WatchPushMsg); ok {
		r.T.DroppedPushes[m.To]++
	}
}

// Components returns all components that received watch deliveries, sorted.
func (t *Trace) Components() []sim.NodeID {
	set := map[sim.NodeID]bool{}
	for _, d := range t.Deliveries {
		set[d.To] = true
	}
	out := make([]sim.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeliveriesTo returns deliveries addressed to a component, in order.
func (t *Trace) DeliveriesTo(id sim.NodeID) []Delivery {
	var out []Delivery
	for _, d := range t.Deliveries {
		if d.To == id {
			out = append(out, d)
		}
	}
	return out
}

// DroppedPushesTo returns how many watch pushes to id were lost in flight.
func (t *Trace) DroppedPushesTo(id sim.NodeID) int { return t.DroppedPushes[id] }

// DuplicatePushesTo returns how many watch pushes id observed twice.
func (t *Trace) DuplicatePushesTo(id sim.NodeID) int { return t.DuplicatePushes[id] }

// CommitTimes returns the distinct virtual times of committed events,
// sorted ascending — the natural anchor points for staleness and
// time-travel plans.
func (t *Trace) CommitTimes() []sim.Time {
	set := map[sim.Time]bool{}
	for _, e := range t.Commits {
		set[sim.Time(e.Time)] = true
	}
	out := make([]sim.Time, 0, len(set))
	for ts := range set {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
