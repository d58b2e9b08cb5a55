// Package learn is the trace-learning phase of the partial-history tool:
// it mines per-component read-dependency profiles from the reference trace
// and uses them to make campaigns *cheaper* — pruning plans whose
// perturbation provably cannot intersect anything the victim component
// consumed, collapsing surviving plans into equivalence classes by
// projected observable effect, and ranking the representatives by a
// learned impact score.
//
// The premise comes straight from the paper's Section 7 sketch:
// perturbations targeting history events a component never observes or
// acts on cannot drive it into a staleness / time-travel / gap state, so
// executing them is pure waste. The learned profile answers, per
// component, "which deliveries did you actually consume before acting?" —
// the observation→action table — and every pruning decision is a pure
// function of that table plus the plan, so decisions are deterministic
// and byte-identical across reruns and worker counts.
//
// Soundness: pruning here is *scheduling*, not deletion. A pruned plan is
// deferred behind every kept plan; the campaign engine only executes the
// deferred tail when the kept set found nothing (or under -keep-going),
// and counts any tail detection as an unsound pruning decision
// (Stats.PruningUnsoundDetections). A campaign with pruning therefore can
// never detect *less* than one without — only later, and the regression
// tests pin that it in fact detects strictly earlier.
package learn

import (
	"sort"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Consumption is one delivery a component plausibly consumed: an
// observation tied to the component's subsequent actions.
type Consumption struct {
	// Index is the consumption's position in the model's global consumed
	// list — the deterministic coordinate equivalence classes hash over.
	Index    int
	Delivery trace.Delivery
	// Writes counts the component's writes attributed to this delivery
	// (issued within the reaction window after it).
	Writes int
	// CASWrites counts the attributed writes that update or delete
	// existing objects (api.Update / api.Delete) — the CAS/txn-adjacent
	// action surface where stale reads become lost updates.
	CASWrites int
	// ActedOn reports whether the component ever wrote to the delivered
	// object — the planner's causality approximation.
	ActedOn bool
	// CrossKind reports whether an attributed write mutates a different
	// kind than the delivered object — the signature of a control loop
	// propagating observed state across objects (operator: cluster spec →
	// pods; scheduler: node churn → pod bindings). Cross-kind consumers
	// carry hidden derived state, exactly the divergence the paper's
	// partial-history perturbations exist to expose, so their
	// consumptions outrank same-kind echo writes (kubelet status
	// updates). Background-periodic writes (heartbeats) are excluded from
	// attribution before this is computed; see Mine.
	CrossKind bool
}

// DeletionAdjacent reports whether the consumed delivery is a deletion or
// carries a deletion mark — the highest-value perturbation targets.
func (c Consumption) DeletionAdjacent() bool {
	return c.Delivery.EventType == apiserver.Deleted || c.Delivery.Terminating
}

// Profile is one component's learned read-dependency profile: the
// observation→action table mined from the reference trace.
type Profile struct {
	Component sim.NodeID
	// Deliveries counts every delivery the component received.
	Deliveries int
	// Consumed lists the deliveries the component plausibly consumed, in
	// trace order. A delivery is consumed when the component acted within
	// the reaction window after it, ever wrote to the delivered object, or
	// the delivery is deletion-adjacent (always kept: a *missing* action
	// on a deletion is exactly the observability-gap bug mode).
	Consumed []Consumption
	// Writes / CASWrites count the component's total mutating RPCs and
	// the subset updating or deleting existing objects.
	Writes    int
	CASWrites int
	// Kinds is the sorted set of kinds with at least one consumed
	// delivery.
	Kinds []cluster.Kind
}

// Model is the mined learning substrate for one reference trace.
type Model struct {
	// ReactionWindow bounds observation→action attribution (mirrors
	// trace.CausalGraph).
	ReactionWindow sim.Duration
	// Profiles maps component → its read-dependency profile.
	Profiles map[sim.NodeID]*Profile

	// consumed is the global consumed list in trace order; Consumption
	// .Index points into it.
	consumed []Consumption
}

// DefaultReactionWindow matches trace.NewCausalGraph's default.
const DefaultReactionWindow = 500 * sim.Millisecond

// Background-stream classifier: a component's write stream to one object
// is background-periodic (node heartbeats, lease renewals) when it has at
// least backgroundMinWrites writes spread over at least backgroundMinSpan
// of the trace's write span. Background writes are excluded from
// observation→action attribution: a heartbeat landing in some delivery's
// reaction window is coincidence, not reaction, and counting it would
// mark every delivery to a heartbeating component as consumed. On the
// five seeded targets the separation is wide — heartbeat streams show
// 32–60 writes over ≥97% of the trace, genuine reaction streams ≤5
// writes over ≤51%.
const (
	backgroundMinWrites = 16
	backgroundMinSpan   = 0.8
)

// Mine builds the model from a reference trace. window <= 0 selects
// DefaultReactionWindow. Mining is a pure function of the trace: the same
// trace always yields the same model, byte for byte.
func Mine(ref *trace.Trace, window sim.Duration) *Model {
	if window <= 0 {
		window = DefaultReactionWindow
	}
	m := &Model{ReactionWindow: window, Profiles: make(map[sim.NodeID]*Profile)}

	// Classify background-periodic write streams (heartbeats): these are
	// excluded from attribution below. ActedOn deliberately still counts
	// them — "ever wrote the delivered object" stays conservative.
	type streamKey struct {
		from sim.NodeID
		obj  objKey
	}
	type streamStat struct {
		n           int
		first, last sim.Time
	}
	streams := make(map[streamKey]*streamStat)
	var wFirst, wLast sim.Time
	for i, w := range ref.Writes {
		if i == 0 || w.Time < wFirst {
			wFirst = w.Time
		}
		if w.Time > wLast {
			wLast = w.Time
		}
		k := streamKey{w.From, objKey{w.Kind, w.Name}}
		s := streams[k]
		if s == nil {
			s = &streamStat{first: w.Time, last: w.Time}
			streams[k] = s
		}
		s.n++
		if w.Time > s.last {
			s.last = w.Time
		}
	}
	span := wLast.Sub(wFirst)
	background := func(k streamKey) bool {
		s := streams[k]
		return s != nil && span > 0 && s.n >= backgroundMinWrites &&
			float64(s.last.Sub(s.first)) >= backgroundMinSpan*float64(span)
	}

	// Index attributable writes per component (trace order is
	// virtual-time order).
	type writeIdx struct {
		times []sim.Time
		cas   []bool // api.Update / api.Delete — mutates an existing object
		kinds []cluster.Kind
	}
	writes := make(map[sim.NodeID]*writeIdx)
	acted := make(map[sim.NodeID]map[objKey]bool)
	totals := make(map[sim.NodeID]*struct{ writes, cas int })
	for _, w := range ref.Writes {
		tot := totals[w.From]
		if tot == nil {
			tot = &struct{ writes, cas int }{}
			totals[w.From] = tot
		}
		tot.writes++
		isCAS := w.Method == apiserver.MethodUpdate.Name || w.Method == apiserver.MethodDelete.Name
		if isCAS {
			tot.cas++
		}
		set := acted[w.From]
		if set == nil {
			set = make(map[objKey]bool)
			acted[w.From] = set
		}
		set[objKey{w.Kind, w.Name}] = true
		if background(streamKey{w.From, objKey{w.Kind, w.Name}}) {
			continue // heartbeat traffic: never attributed to a delivery
		}
		wi := writes[w.From]
		if wi == nil {
			wi = &writeIdx{}
			writes[w.From] = wi
		}
		wi.times = append(wi.times, w.Time)
		wi.cas = append(wi.cas, isCAS)
		wi.kinds = append(wi.kinds, w.Kind)
	}

	profile := func(id sim.NodeID) *Profile {
		p := m.Profiles[id]
		if p == nil {
			p = &Profile{Component: id}
			m.Profiles[id] = p
		}
		return p
	}

	for _, d := range ref.Deliveries {
		if d.To == "admin" {
			// The workload driver is the experimenter, not a component
			// under test; the planner never perturbs it either.
			continue
		}
		p := profile(d.To)
		p.Deliveries++

		attributed, casAttributed := 0, 0
		crossKind := false
		if wi := writes[d.To]; wi != nil {
			lo := sort.Search(len(wi.times), func(i int) bool { return wi.times[i] >= d.Time })
			for i := lo; i < len(wi.times); i++ {
				gap := wi.times[i].Sub(d.Time)
				if gap > window {
					break
				}
				attributed++
				if wi.cas[i] {
					casAttributed++
				}
				if wi.kinds[i] != d.Kind {
					crossKind = true
				}
			}
		}
		actedOn := acted[d.To][objKey{d.Kind, d.Name}]
		deletionAdjacent := d.EventType == apiserver.Deleted || d.Terminating
		if attributed == 0 && !actedOn && !deletionAdjacent {
			continue // observed but never consumed
		}
		c := Consumption{
			Index:     len(m.consumed),
			Delivery:  d,
			Writes:    attributed,
			CASWrites: casAttributed,
			ActedOn:   actedOn,
			CrossKind: crossKind,
		}
		m.consumed = append(m.consumed, c)
		p.Consumed = append(p.Consumed, c)
	}

	for id, tot := range totals {
		if id == "admin" {
			continue
		}
		p := profile(id)
		p.Writes = tot.writes
		p.CASWrites = tot.cas
	}
	for _, p := range m.Profiles {
		kinds := map[cluster.Kind]bool{}
		for _, c := range p.Consumed {
			kinds[c.Delivery.Kind] = true
		}
		p.Kinds = make([]cluster.Kind, 0, len(kinds))
		for k := range kinds {
			p.Kinds = append(p.Kinds, k)
		}
		sort.Slice(p.Kinds, func(i, j int) bool { return p.Kinds[i] < p.Kinds[j] })
	}
	return m
}

type objKey struct {
	kind cluster.Kind
	name string
}

// Components returns the profiled components, sorted — the deterministic
// iteration order for reports and telemetry.
func (m *Model) Components() []sim.NodeID {
	out := make([]sim.NodeID, 0, len(m.Profiles))
	for id := range m.Profiles {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConsumedCount returns the total number of consumed deliveries across all
// components.
func (m *Model) ConsumedCount() int { return len(m.consumed) }

// ConsumedDelivery reports whether a specific delivery — identified by
// its receiver-side coordinate (To, Kind, Name, EventType, Occurrence) —
// is in the receiver's consumed set. This is the explorer's
// delivery-independence oracle: the consumed set over-approximates the
// deliveries a component's behavior can depend on (attribution window OR
// acted-on object OR deletion-adjacent), so a delivery outside it
// provably commutes with the component's actions under the mined model,
// and perturbing its schedule cannot change any oracle-visible state.
func (m *Model) ConsumedDelivery(d trace.Delivery) bool {
	p := m.Profiles[d.To]
	if p == nil {
		return false
	}
	for _, c := range p.Consumed {
		e := c.Delivery
		if e.Kind == d.Kind && e.Name == d.Name && e.EventType == d.EventType && e.Occurrence == d.Occurrence {
			return true
		}
	}
	return false
}

// consumedTo returns the indices of consumed deliveries addressed to a
// component within [from, until] (until == 0 means "until the end"),
// widened by the reaction window on both sides — the conservative slack
// every surface computation applies.
func (m *Model) consumedTo(comp sim.NodeID, from, until sim.Time) []int {
	return m.scan(from, until, func(c Consumption) bool { return c.Delivery.To == comp })
}

// consumedVia returns the indices of consumed deliveries that flowed
// *through* a node (From == via) within the widened window — the surface
// of apiserver-freezing and store-link plans.
func (m *Model) consumedVia(via sim.NodeID, from, until sim.Time) []int {
	return m.scan(from, until, func(c Consumption) bool { return c.Delivery.From == via })
}

// consumedOnLink returns the indices of consumed deliveries carried by the
// (a, b) link in either direction within the widened window.
func (m *Model) consumedOnLink(a, b sim.NodeID, from, until sim.Time) []int {
	return m.scan(from, until, func(c Consumption) bool {
		d := c.Delivery
		return (d.From == a && d.To == b) || (d.From == b && d.To == a)
	})
}

func (m *Model) scan(from, until sim.Time, match func(Consumption) bool) []int {
	lo := from.Add(-m.ReactionWindow)
	var out []int
	for _, c := range m.consumed {
		t := c.Delivery.Time
		if t < lo {
			continue
		}
		if until > 0 && t > until.Add(m.ReactionWindow) {
			break // consumed list is in trace (time) order
		}
		if match(c) {
			out = append(out, c.Index)
		}
	}
	return out
}
