package history

// This file implements the epoch-bounded view proposed in §6.2 of the
// paper: break H into epochs and guarantee that if a service sees one event
// of an epoch it sees all events of that epoch. Within an epoch this
// eliminates staleness and observability gaps by construction; the epoch
// size trades divergence bound against coordination cost (benchmarked in
// E7 / internal/epochs).

// Epochs splits h into epochs of size events each (the final epoch may be
// short): contiguous slices of the history, each visible all or nothing.
// size must be >= 1.
func Epochs(h *History, size int) [][]Event {
	if size < 1 {
		size = 1
	}
	events := h.Events()
	var out [][]Event
	for i := 0; i < len(events); i += size {
		out = append(out, events[i:min(i+size, len(events))])
	}
	return out
}

// CheckEpochVisibility verifies the §6.2 guarantee: for every epoch of full
// (of the given size), the view either contains the whole epoch or none of
// it. It returns the torn epochs, those the view holds some but not all of.
// Trailing epochs wholly beyond the view's frontier count as unseen, which
// is permitted (lag is allowed; tearing is not).
func CheckEpochVisibility(view, full *History, size int) [][]Event {
	seen := make(map[int64]bool, view.Len())
	for _, e := range view.Events() {
		seen[e.Revision] = true
	}
	var torn [][]Event
	for _, ep := range Epochs(full, size) {
		n := 0
		for _, e := range ep {
			if seen[e.Revision] {
				n++
			}
		}
		if n != 0 && n != len(ep) {
			torn = append(torn, ep)
		}
	}
	return torn
}

// TruncateToEpochBoundary returns the longest prefix of view that ends on
// an epoch boundary of full — i.e. the view an epoch-bounded delivery layer
// would expose to the service instead of a torn view.
func TruncateToEpochBoundary(view, full *History, size int) *History {
	boundaries := make(map[int64]bool)
	for _, ep := range Epochs(full, size) {
		boundaries[ep[len(ep)-1].Revision] = true
	}
	out := New()
	pending := make([]Event, 0, size)
	for _, e := range view.Events() {
		pending = append(pending, e)
		if boundaries[e.Revision] {
			for _, p := range pending {
				// Events are already in order; Append cannot fail here.
				_ = out.Append(p)
			}
			pending = pending[:0]
		}
	}
	return out
}
