// Package core implements the paper's proposed testing tool (Section 7):
// it records a reference execution, mines it for perturbation candidates,
// and generates plans that regulate how each component's view (H', S')
// advances relative to the ground truth (H, S) — creating staleness, time
// traveling, and observability gaps on purpose — then runs campaigns that
// execute plans until an oracle reports a violation.
package core

import (
	"fmt"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
)

// Resteerable is a component whose next restart can be pointed at a chosen
// apiserver — the ingredient of time-travel plans. Kubelets and the
// Cassandra operator implement it.
type Resteerable interface {
	SetRestartUpstream(api sim.NodeID)
}

// Plan is one perturbation schedule applied to a fresh cluster before the
// workload runs. Plans must be deterministic functions of their fields.
type Plan interface {
	// ID is a stable, unique identifier within a campaign.
	ID() string
	// Describe explains the perturbation in one line.
	Describe() string
	// Apply installs the plan's interceptors and fault timers.
	Apply(c *infra.Cluster)
}

// StalenessPlan freezes one apiserver's view by partitioning it from the
// store for a window — the §4.2.1 pattern. Components reading through the
// victim observe an increasingly stale (H', S').
type StalenessPlan struct {
	Victim sim.NodeID // apiserver to freeze
	From   sim.Time
	Until  sim.Time // zero = never heal
}

// ID implements Plan.
func (p StalenessPlan) ID() string {
	return fmt.Sprintf("stale/%s@%d-%d", p.Victim, p.From, p.Until)
}

// Describe implements Plan.
func (p StalenessPlan) Describe() string {
	return fmt.Sprintf("freeze %s from %s to %s", p.Victim, p.From, p.Until)
}

// Apply implements Plan.
func (p StalenessPlan) Apply(c *infra.Cluster) {
	k := c.World.Kernel()
	k.At(p.From, func() { c.World.Network().Partition(p.Victim, infra.StoreID) })
	if p.Until > p.From {
		k.At(p.Until, func() { c.World.Network().Heal(p.Victim, infra.StoreID) })
	}
}

// GapPlan drops watch notifications about one object headed to one
// component — the §4.2.3 pattern. With Occurrence > 0 it drops exactly the
// n-th matching delivery (replay-stable thanks to determinism); otherwise
// it drops every match inside [From, Until].
type GapPlan struct {
	Victim     sim.NodeID
	Kind       cluster.Kind
	Name       string
	Type       apiserver.EventType // empty = any type
	Occurrence int                 // >0: drop exactly this occurrence
	From       sim.Time
	Until      sim.Time // zero with Occurrence==0 = until the end
}

// ID implements Plan.
func (p GapPlan) ID() string {
	return fmt.Sprintf("gap/%s/%s/%s/%s#%d@%d-%d", p.Victim, p.Kind, p.Name, p.Type, p.Occurrence, p.From, p.Until)
}

// Describe implements Plan.
func (p GapPlan) Describe() string {
	if p.Occurrence > 0 {
		return fmt.Sprintf("drop %s event #%d for %s/%s to %s", p.Type, p.Occurrence, p.Kind, p.Name, p.Victim)
	}
	return fmt.Sprintf("drop %s/%s events to %s in [%s,%s]", p.Kind, p.Name, p.Victim, p.From, p.Until)
}

// Apply implements Plan.
func (p GapPlan) Apply(c *infra.Cluster) { p.apply(c, 0) }

// apply installs the interceptor with seen matches already counted.
func (p GapPlan) apply(c *infra.Cluster, seen int) {
	done := p.Occurrence > 0 && seen >= p.Occurrence
	c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if done || m.To != p.Victim || m.Kind != apiserver.KindWatchPush {
			return sim.Decision{Verdict: sim.Pass}
		}
		push, ok := m.Payload.(*apiserver.WatchPushMsg)
		if !ok {
			return sim.Decision{Verdict: sim.Pass}
		}
		now := c.World.Now()
		for _, ev := range push.Events {
			if ev.Object == nil || ev.Object.Meta.Kind != p.Kind || ev.Object.Meta.Name != p.Name {
				continue
			}
			if p.Type != "" && ev.Type != p.Type {
				continue
			}
			if p.Occurrence > 0 {
				seen++
				if seen == p.Occurrence {
					done = true
					return sim.Decision{Verdict: sim.Drop}
				}
				continue
			}
			if now >= p.From && (p.Until == 0 || now <= p.Until) {
				return sim.Decision{Verdict: sim.Drop}
			}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))
}

// TimeTravelPlan drives the §4.2.2 pattern end to end: freeze an alternate
// apiserver at FreezeAt (preserving a historical view), crash the component
// at CrashAt, steer its restart at the frozen upstream, restart it, and
// optionally heal the upstream afterwards. The restarted component re-lists
// from the frozen apiserver and observes its own past.
type TimeTravelPlan struct {
	Component    sim.NodeID
	StaleAPI     sim.NodeID
	FreezeAt     sim.Time
	CrashAt      sim.Time
	RestartDelay sim.Duration
	HealAt       sim.Time // zero = never heal
}

// ID implements Plan.
func (p TimeTravelPlan) ID() string {
	return fmt.Sprintf("timetravel/%s->%s@f%d-c%d", p.Component, p.StaleAPI, p.FreezeAt, p.CrashAt)
}

// Describe implements Plan.
func (p TimeTravelPlan) Describe() string {
	return fmt.Sprintf("freeze %s at %s, crash %s at %s, restart onto frozen view",
		p.StaleAPI, p.FreezeAt, p.Component, p.CrashAt)
}

// Apply implements Plan.
func (p TimeTravelPlan) Apply(c *infra.Cluster) {
	k := c.World.Kernel()
	k.At(p.FreezeAt, func() { c.World.Network().Partition(p.StaleAPI, infra.StoreID) })
	k.At(p.CrashAt, func() {
		proc, ok := c.World.Process(p.Component)
		if !ok {
			return
		}
		_ = c.World.Crash(p.Component)
		if r, ok := proc.(Resteerable); ok {
			r.SetRestartUpstream(p.StaleAPI)
		}
		delay := p.RestartDelay
		if delay <= 0 {
			delay = 100 * sim.Millisecond
		}
		k.Schedule(delay, func() { _ = c.World.Restart(p.Component) })
	})
	if p.HealAt > 0 {
		k.At(p.HealAt, func() { c.World.Network().Heal(p.StaleAPI, infra.StoreID) })
	}
}

// CrashPlan crashes and restarts one component (the CrashTuner-style
// primitive).
type CrashPlan struct {
	Component    sim.NodeID
	At           sim.Time
	RestartDelay sim.Duration
}

// ID implements Plan.
func (p CrashPlan) ID() string { return fmt.Sprintf("crash/%s@%d", p.Component, p.At) }

// Describe implements Plan.
func (p CrashPlan) Describe() string {
	return fmt.Sprintf("crash %s at %s for %s", p.Component, p.At, p.RestartDelay)
}

// Apply implements Plan.
func (p CrashPlan) Apply(c *infra.Cluster) {
	c.World.Kernel().At(p.At, func() {
		if _, ok := c.World.Process(p.Component); !ok {
			return
		}
		delay := p.RestartDelay
		if delay <= 0 {
			delay = 100 * sim.Millisecond
		}
		_ = c.World.CrashFor(p.Component, delay)
	})
}

// PartitionPlan cuts a link for a window (the CoFI-style primitive).
type PartitionPlan struct {
	A, B  sim.NodeID
	From  sim.Time
	Until sim.Time // zero = never heal
}

// ID implements Plan.
func (p PartitionPlan) ID() string {
	return fmt.Sprintf("partition/%s-%s@%d-%d", p.A, p.B, p.From, p.Until)
}

// Describe implements Plan.
func (p PartitionPlan) Describe() string {
	return fmt.Sprintf("partition %s from %s in [%s,%s]", p.A, p.B, p.From, p.Until)
}

// Apply implements Plan.
func (p PartitionPlan) Apply(c *infra.Cluster) {
	k := c.World.Kernel()
	k.At(p.From, func() { c.World.Network().Partition(p.A, p.B) })
	if p.Until > p.From {
		k.At(p.Until, func() { c.World.Network().Heal(p.A, p.B) })
	}
}

// SequencePlan composes several plans into one execution.
type SequencePlan struct {
	Name  string
	Plans []Plan
}

// ID implements Plan.
func (p SequencePlan) ID() string {
	id := "seq/" + p.Name + "["
	for i, sub := range p.Plans {
		if i > 0 {
			id += ","
		}
		id += sub.ID()
	}
	return id + "]"
}

// Describe implements Plan.
func (p SequencePlan) Describe() string {
	return fmt.Sprintf("composite of %d perturbations", len(p.Plans))
}

// Apply implements Plan.
func (p SequencePlan) Apply(c *infra.Cluster) {
	for _, sub := range p.Plans {
		sub.Apply(c)
	}
}

// NopPlan perturbs nothing (the reference execution).
type NopPlan struct{}

// ID implements Plan.
func (NopPlan) ID() string { return "nop" }

// Describe implements Plan.
func (NopPlan) Describe() string { return "no perturbation" }

// Apply implements Plan.
func (NopPlan) Apply(*infra.Cluster) {}
