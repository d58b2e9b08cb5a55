package history

// This file quantifies how a component's view (H', S') diverges from the
// ground truth (H, S) — the quantities the paper's testing tool manipulates
// (staleness, time traveling, observability gaps; §4.2).

// Divergence summarizes how a partial view relates to the full history at
// one instant.
type Divergence struct {
	// LagRevisions is how many committed revisions the view's frontier
	// trails the full history (staleness, §4.2.1).
	LagRevisions int64
	// LagTime is the virtual-time age of the view: commit time of the
	// full history's newest event minus commit time of the view's frontier
	// event. Zero when the view is current.
	LagTime int64
	// MissingEvents counts events at or below the view's frontier that the
	// view never observed (observability gaps, §4.2.3).
	MissingEvents int
	// OrderViolations counts adjacent observed pairs that are out of
	// revision order (a symptom of time traveling / replays, §4.2.2).
	OrderViolations int
}

// Current reports whether the view is fully caught up and complete.
func (d Divergence) Current() bool {
	return d.LagRevisions == 0 && d.MissingEvents == 0 && d.OrderViolations == 0
}

// Measure computes the divergence of partial from full. Both must be
// histories of the same system (partial's events drawn from full).
func Measure(partial, full *History) Divergence {
	var d Divergence
	d.LagRevisions = full.LastRevision() - partial.LastRevision()
	if d.LagRevisions < 0 {
		d.LagRevisions = 0
	}
	if full.Len() > 0 && partial.Len() > 0 {
		lt := full.At(full.Len()-1).Time - partial.At(partial.Len()-1).Time
		if lt > 0 {
			d.LagTime = lt
		}
	} else if full.Len() > 0 && partial.Len() == 0 {
		d.LagTime = full.At(full.Len()-1).Time - full.At(0).Time
	}
	d.MissingEvents = len(partial.MissingFrom(full))
	return d
}

// TimeTravel folds the revisions a component observed, in arrival order,
// into its time-travel episodes and their depth. An episode is an
// observation below the highest revision observed before it: the pattern of
// Figure 3b, where after a restart or an upstream source switch the
// component re-observes its own past. depth is the largest distance
// travelled backwards (0 when revs is monotone).
func TimeTravel(revs []int64) (episodes int, depth int64) {
	var maxSeen int64
	for _, r := range revs {
		if r < maxSeen {
			episodes++
			depth = max(depth, maxSeen-r)
		}
		maxSeen = max(maxSeen, r)
	}
	return episodes, depth
}
