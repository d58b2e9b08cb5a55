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

// Observation is one event delivery as seen by a component, in arrival
// order. Components append to an ObservationLog as notifications arrive;
// the log is the raw material for time-travel detection.
type Observation struct {
	Revision int64
	Key      string
	Time     int64 // virtual arrival time
}

// ObservationLog records the order in which a component observed events.
// Unlike History it permits out-of-order and duplicate entries — that is
// exactly what it exists to detect.
type ObservationLog struct {
	obs Log[Observation]
}

// Record appends an observation.
func (l *ObservationLog) Record(o Observation) { l.obs.Append(o) }

// Fork returns a copy-on-write fork of the log: it shares the recorded
// prefix (Log.Fork) — the prefix-checkpoint layer's snapshot primitive.
func (l *ObservationLog) Fork() ObservationLog { return ObservationLog{obs: l.obs.Fork()} }

// Len returns the number of recorded observations.
func (l *ObservationLog) Len() int { return l.obs.Len() }

// Observations returns a copy of the log.
func (l *ObservationLog) Observations() []Observation {
	return l.obs.AppendTo(make([]Observation, 0, l.obs.Len()), 0)
}

// TimeTravelEpisode marks a regression in a component's observations: at
// index Index the component observed revision Revision after having already
// observed MaxSeen (> Revision). This is the pattern of Figure 3b — after a
// restart or an upstream source switch, the component re-observes its own
// past.
type TimeTravelEpisode struct {
	Index    int
	Revision int64
	MaxSeen  int64
}

// TimeTravels scans the log and returns every regression episode.
func (l *ObservationLog) TimeTravels() []TimeTravelEpisode {
	var eps []TimeTravelEpisode
	var maxSeen int64
	for i := 0; i < l.obs.Len(); i++ {
		o := l.obs.At(i)
		if o.Revision < maxSeen {
			eps = append(eps, TimeTravelEpisode{Index: i, Revision: o.Revision, MaxSeen: maxSeen})
		}
		if o.Revision > maxSeen {
			maxSeen = o.Revision
		}
	}
	return eps
}

// MaxRegression returns the largest revision distance travelled backwards
// in the log (0 when the log is monotone).
func (l *ObservationLog) MaxRegression() int64 {
	var maxSeen, worst int64
	for i := 0; i < l.obs.Len(); i++ {
		o := l.obs.At(i)
		if d := maxSeen - o.Revision; d > worst {
			worst = d
		}
		if o.Revision > maxSeen {
			maxSeen = o.Revision
		}
	}
	return worst
}
