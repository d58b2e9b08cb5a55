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
	"sort"
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
	events []Event
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
	if n := len(h.events); n > 0 && e.Revision <= h.events[n-1].Revision {
		return fmt.Errorf("history: non-monotonic revision %d after %d", e.Revision, h.events[n-1].Revision)
	}
	if e.Revision <= 0 {
		return fmt.Errorf("history: revision must be positive, got %d", e.Revision)
	}
	h.events = append(h.events, e)
	return nil
}

// Len returns the number of events.
func (h *History) Len() int { return len(h.events) }

// LastRevision returns the revision of the newest event, or 0 if empty.
func (h *History) LastRevision() int64 {
	if len(h.events) == 0 {
		return 0
	}
	return h.events[len(h.events)-1].Revision
}

// FirstRevision returns the revision of the oldest retained event, or 0 if
// empty. After compaction this can exceed 1.
func (h *History) FirstRevision() int64 {
	if len(h.events) == 0 {
		return 0
	}
	return h.events[0].Revision
}

// Events returns a copy of the event sequence.
func (h *History) Events() []Event {
	out := make([]Event, len(h.events))
	copy(out, h.events)
	return out
}

// At returns the i-th event (0-based).
func (h *History) At(i int) Event { return h.events[i] }

// Since returns all events with revision > rev, in order.
func (h *History) Since(rev int64) []Event {
	i := sort.Search(len(h.events), func(i int) bool { return h.events[i].Revision > rev })
	out := make([]Event, len(h.events)-i)
	copy(out, h.events[i:])
	return out
}

// Find returns the event with the given revision.
func (h *History) Find(rev int64) (Event, bool) {
	i := sort.Search(len(h.events), func(i int) bool { return h.events[i].Revision >= rev })
	if i < len(h.events) && h.events[i].Revision == rev {
		return h.events[i], true
	}
	return Event{}, false
}

// Compact drops all events with revision < rev, modelling the bounded watch
// window of etcd / the apiserver ([7] in the paper): earlier events become
// unobservable even if a client explicitly asks for them.
func (h *History) Compact(rev int64) int {
	i := sort.Search(len(h.events), func(i int) bool { return h.events[i].Revision >= rev })
	dropped := i
	h.events = append([]Event(nil), h.events[i:]...)
	return dropped
}

// Fork returns a copy-on-write fork of the history: it shares the retained
// events, which are immutable once committed, capped at their length so an
// Append on either side reallocates instead of scribbling over the shared
// backing array (Compact always allocates) — the prefix-checkpoint layer's
// snapshot primitive, as ObservationLog.Fork is.
func (h *History) Fork() History {
	return History{events: h.events[:len(h.events):len(h.events)]}
}

// Clone returns a deep copy of the history.
func (h *History) Clone() *History {
	c := &History{events: make([]Event, len(h.events))}
	copy(c.events, h.events)
	return c
}

// IsPartialOf reports whether h is a partial history of full: a subsequence
// (subset preserving relative order) of full's events, compared by revision
// and content. Because revisions are strictly increasing in both histories,
// a subset by revision automatically preserves relative order; the content
// check guards against fabricated events that reuse a revision number.
func (h *History) IsPartialOf(full *History) bool {
	j := 0
	for _, e := range h.events {
		for j < len(full.events) && full.events[j].Revision < e.Revision {
			j++
		}
		if j >= len(full.events) || !full.events[j].Equal(e) {
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
	for _, fe := range full.events {
		if fe.Revision > frontier {
			break
		}
		for j < len(h.events) && h.events[j].Revision < fe.Revision {
			j++
		}
		if j < len(h.events) && h.events[j].Revision == fe.Revision {
			continue
		}
		missing = append(missing, fe)
	}
	return missing
}
