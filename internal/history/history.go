// Package history implements the paper's formal model of cluster state:
// the state S of the infrastructure is an object, the history H is the
// ordered sequence of committed changes to S, and a partial history H' is a
// subsequence of H that preserves relative order (Section 3).
//
// The package is deliberately dependency-free so that its algebra (subset
// checks, materialization, divergence metrics, epochs) can be property
// tested in isolation and reused by the store, the trace recorder, and the
// oracles.
package history

import (
	"bytes"
	"fmt"
)

// EventType classifies a change to the state.
type EventType int

const (
	// Put records creation or modification of a key.
	Put EventType = iota
	// Delete records removal of a key.
	Delete
)

func (t EventType) String() string {
	switch t {
	case Put:
		return "PUT"
	case Delete:
		return "DELETE"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one committed change in a history. Revision is the event's
// position in the global history H: the store assigns revisions
// contiguously starting at 1. Only fully committed events appear in a
// History — H is not a replicated log with uncommitted suffixes (paper §3,
// footnote 1).
type Event struct {
	Revision int64
	Type     EventType
	Key      string
	Value    []byte // nil for Delete
	PrevRev  int64  // previous mod revision of Key; 0 if this Put created it
	Time     int64  // virtual commit time (opaque to this package)
}

func (e Event) String() string {
	return fmt.Sprintf("rev=%d %s %s", e.Revision, e.Type, e.Key)
}

// Equal reports full structural equality of two events.
func (e Event) Equal(o Event) bool {
	return e.Revision == o.Revision && e.Type == o.Type && e.Key == o.Key &&
		e.PrevRev == o.PrevRev && e.Time == o.Time && bytes.Equal(e.Value, o.Value)
}

// History is an ordered sequence of committed events with strictly
// increasing revisions. The zero value is an empty history.
type History struct {
	events Log[Event]
}

// New returns an empty history.
func New() *History { return &History{} }

// FromEvents builds a history from events, which must have strictly
// increasing revisions.
func FromEvents(events []Event) (*History, error) {
	h := New()
	for _, e := range events {
		if err := h.Append(e); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Append adds a committed event. The event's revision must exceed the last
// appended revision; otherwise Append fails and the history is unchanged.
func (h *History) Append(e Event) error {
	if last := h.LastRevision(); h.Len() > 0 && e.Revision <= last {
		return fmt.Errorf("history: non-monotonic revision %d after %d", e.Revision, last)
	}
	if e.Revision <= 0 {
		return fmt.Errorf("history: revision must be positive, got %d", e.Revision)
	}
	h.events.Append(e)
	return nil
}

// Len returns the number of events.
func (h *History) Len() int { return h.events.Len() }

// LastRevision returns the revision of the newest event, or 0 if empty.
func (h *History) LastRevision() int64 {
	if h.Len() == 0 {
		return 0
	}
	return h.events.At(h.Len() - 1).Revision
}

// FirstRevision returns the revision of the oldest retained event, or 0 if
// empty. After compaction this can exceed 1.
func (h *History) FirstRevision() int64 {
	if h.Len() == 0 {
		return 0
	}
	return h.events.At(0).Revision
}

// Events returns a copy of the event sequence.
func (h *History) Events() []Event { return h.events.AppendTo(make([]Event, 0, h.Len()), 0) }

// At returns the i-th event (0-based).
func (h *History) At(i int) Event { return h.events.At(i) }

// after returns the index of the first event with revision > rev.
func (h *History) after(rev int64) int {
	return h.events.Search(func(e Event) bool { return e.Revision > rev })
}

// Since returns all events with revision > rev, in order.
func (h *History) Since(rev int64) []Event {
	i := h.after(rev)
	return h.events.AppendTo(make([]Event, 0, h.Len()-i), i)
}

// Find returns the event with the given revision.
func (h *History) Find(rev int64) (Event, bool) {
	if i := h.after(rev - 1); i < h.Len() && h.events.At(i).Revision == rev {
		return h.events.At(i), true
	}
	return Event{}, false
}

// Compact drops all events with revision < rev, modelling the bounded watch
// window of etcd / the apiserver ([7] in the paper): earlier events become
// unobservable even if a client explicitly asks for them.
func (h *History) Compact(rev int64) int {
	dropped := h.after(rev - 1)
	h.events.DropFront(dropped)
	return dropped
}

// Fork returns a copy-on-write fork of the history: it shares the retained
// events, which are immutable once committed (Log.Fork) — the
// prefix-checkpoint layer's snapshot primitive.
func (h *History) Fork() History { return History{events: h.events.Fork()} }

// Clone returns an independent copy of the history: a Fork behind a
// pointer.
func (h *History) Clone() *History {
	c := h.Fork()
	return &c
}

// IsPartialOf reports whether h is a partial history of full: a subsequence
// (subset preserving relative order) of full's events, compared by revision
// and content. Because revisions are strictly increasing in both histories,
// a subset by revision automatically preserves relative order; the content
// check guards against fabricated events that reuse a revision number.
func (h *History) IsPartialOf(full *History) bool {
	j := 0
	for i := 0; i < h.Len(); i++ {
		e := h.At(i)
		for j < full.Len() && full.At(j).Revision < e.Revision {
			j++
		}
		if j >= full.Len() || !full.At(j).Equal(e) {
			return false
		}
		j++
	}
	return true
}

// MissingFrom returns the events of full (up to and including h's last
// revision) that do not appear in h: the observability gaps of h relative
// to full. Events beyond h's frontier are lag, not gaps, and are excluded.
func (h *History) MissingFrom(full *History) []Event {
	frontier := h.LastRevision()
	var missing []Event
	j := 0
	for i := 0; i < full.Len(); i++ {
		fe := full.At(i)
		if fe.Revision > frontier {
			break
		}
		for j < h.Len() && h.At(j).Revision < fe.Revision {
			j++
		}
		if j < h.Len() && h.At(j).Revision == fe.Revision {
			continue
		}
		missing = append(missing, fe)
	}
	return missing
}
