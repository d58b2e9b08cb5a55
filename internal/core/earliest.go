package core

import (
	"math"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NoEffect is the sentinel EarliestEffect returns for plans with no
// prefix constraint at all (e.g. NopPlan): any checkpoint precedes it.
const NoEffect = sim.Time(math.MaxInt64)

// EarliestEffect returns the earliest virtual time at which the plan can
// influence the execution, given the reference trace the plan was mined
// from. A prefix checkpoint taken at or before this instant is safe to
// fork from: the checkpointed prefix is byte-identical between the
// unperturbed reference run and a full replay under the plan.
//
// The second return is false when the plan's effect time cannot be
// bounded (an unknown plan type) — such plans must run as full replays.
//
// An occurrence-counted plan (GapPlan with an Occurrence, the
// delivery-coordinate plans) acts on its Occurrence-th matching delivery,
// so its bound is that delivery's send time, or NoEffect when the
// reference holds fewer matches. Counting before it changes nothing, but a
// fork must resume the count where the prefix left it (ApplyResumed). The
// bound is exact only on a reference that lost no watch push:
// a dropped push is counted by the send-side interceptor but absent from
// Trace.Deliveries, so the true occurrence can come earlier.
func EarliestEffect(p Plan, ref *trace.Trace) (sim.Time, bool) {
	if ctr, n, ok := occurrence(p); ok {
		return ctr.nth(ref, n), true
	}
	switch p := p.(type) {
	case StalenessPlan:
		return p.From, true
	case GapPlan:
		return p.From, true
	case TimeTravelPlan:
		return p.FreezeAt, true
	case CrashPlan:
		return p.At, true
	case PartitionPlan:
		return p.From, true
	case SlowLinkPlan:
		return p.From, true
	case FlakyLinkPlan:
		return p.From, true
	case CompactionPressurePlan:
		return p.At, true
	case SequencePlan:
		eff := NoEffect
		for _, sub := range p.Plans {
			t, ok := EarliestEffect(sub, ref)
			if !ok {
				return 0, false
			}
			if t < eff {
				eff = t
			}
		}
		return eff, true
	case NopPlan:
		return NoEffect, true
	default:
		return 0, false
	}
}

// counter is what an occurrence-counted plan counts: events about one
// object (kind/name, and typ when set) inside watch pushes to victim.
type counter struct {
	victim sim.NodeID
	kind   cluster.Kind
	name   string
	typ    apiserver.EventType // empty = any type
}

// occurrence returns the counter of an occurrence-counted plan and the
// occurrence it acts on; ok is false for every other plan, composites
// included.
func occurrence(p Plan) (ctr counter, n int, ok bool) {
	switch p := p.(type) {
	case GapPlan:
		if p.Occurrence > 0 {
			return counter{p.Victim, p.Kind, p.Name, p.Type}, p.Occurrence, true
		}
	case DropDeliveryPlan:
		return counter{p.Victim, p.Kind, p.Name, p.Type}, p.Occurrence, true
	case DelayDeliveryPlan:
		return counter{p.Victim, p.Kind, p.Name, p.Type}, p.Occurrence, true
	}
	return counter{}, 0, false
}

// Occurrence reports whether p is occurrence-counted — a GapPlan with an
// Occurrence, or a delivery-coordinate plan — and which matching delivery
// it acts on.
func Occurrence(p Plan) (n int, ok bool) {
	_, n, ok = occurrence(p)
	return n, ok
}

// matches reports whether the counter counts recorded delivery d.
func (c counter) matches(d *trace.Delivery) bool {
	return d.To == c.victim && d.Kind == c.kind && d.Name == c.name &&
		(c.typ == "" || d.EventType == c.typ)
}

// nth returns the send time of the n-th reference delivery the counter
// counts, NoEffect when there are fewer, and 0 for an unknown reference
// (only the build boundary is safe then).
func (c counter) nth(ref *trace.Trace, n int) sim.Time {
	if ref == nil {
		return 0
	}
	for i := range ref.Deliveries {
		if d := &ref.Deliveries[i]; c.matches(d) {
			if n--; n == 0 {
				return d.Time
			}
		}
	}
	return NoEffect
}

// Seen returns how many events the counter of occurrence-counted plan p
// has counted over a recorded run prefix, p applied as the recording
// began; 0 for other plans. The count is exact when no push was in flight
// at either end of the prefix and the run neither dropped nor duplicated a
// watch push: every push a counter saw is then a recorded delivery, once.
func Seen(p Plan, prefix *trace.Trace) int {
	ctr, _, ok := occurrence(p)
	if !ok {
		return 0
	}
	seen := 0
	for i := range prefix.Deliveries {
		if ctr.matches(&prefix.Deliveries[i]) {
			seen++
		}
	}
	return seen
}

// ApplyResumed applies p exactly as p.Apply does to a cluster resumed at
// the end of a recorded run prefix in which p's counters were already
// counting: the counter of each occurrence-counted leaf starts at
// Seen(leaf, prefix) instead of zero. A leaf whose count has reached its
// occurrence has acted and passes everything from then on.
func ApplyResumed(p Plan, c *infra.Cluster, prefix *trace.Trace) {
	switch q := p.(type) {
	case SequencePlan:
		for _, sub := range q.Plans {
			ApplyResumed(sub, c, prefix)
		}
		return
	case GapPlan:
		if q.Occurrence > 0 {
			q.apply(c, Seen(q, prefix))
			return
		}
	case DropDeliveryPlan:
		q.apply(c, Seen(q, prefix))
		return
	case DelayDeliveryPlan:
		q.apply(c, Seen(q, prefix))
		return
	}
	p.Apply(c)
}
