// Package baselines implements the comparison strategies of the paper's
// Section 5/6 discussion: random fault injection, a CrashTuner-like
// heuristic (crash a component right after it updates membership-related
// cached state), and a CoFI-like heuristic (partition a component from its
// upstream around membership-state changes). They share the Plan/Strategy
// interfaces of internal/core so campaigns are directly comparable.
package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// membershipKinds approximates "meta-info" state in CrashTuner's sense:
// cluster membership (nodes) and the membership-bearing custom resource.
var membershipKinds = map[cluster.Kind]bool{
	cluster.KindNode:      true,
	cluster.KindCassandra: true,
}

// Random generates N random fault schedules: each plan draws 1..3 faults
// (component crash, link partition, or random watch-event drops) at
// uniformly random times over the horizon.
type Random struct {
	Seed int64
	N    int
}

// Name implements core.Strategy.
func (r Random) Name() string { return "random" }

// Plans implements core.Strategy.
func (r Random) Plans(t core.Target, ref *trace.Trace) []core.Plan {
	rng := rand.New(rand.NewSource(r.Seed))
	horizon := int64(t.Horizon)
	var plans []core.Plan
	for i := 0; i < r.N; i++ {
		nFaults := 1 + rng.Intn(3)
		var sub []core.Plan
		for f := 0; f < nFaults; f++ {
			at := sim.Time(rng.Int63n(horizon))
			switch rng.Intn(3) {
			case 0: // crash a random restartable component
				if len(t.Topology.Restartable) == 0 {
					continue
				}
				comp := t.Topology.Restartable[rng.Intn(len(t.Topology.Restartable))]
				sub = append(sub, core.CrashPlan{
					Component:    comp,
					At:           at,
					RestartDelay: sim.Duration(50+rng.Int63n(500)) * sim.Millisecond,
				})
			case 1: // partition a random component from a random apiserver
				if len(t.Topology.Restartable) == 0 || len(t.Topology.APIServers) == 0 {
					continue
				}
				comp := t.Topology.Restartable[rng.Intn(len(t.Topology.Restartable))]
				api := t.Topology.APIServers[rng.Intn(len(t.Topology.APIServers))]
				sub = append(sub, core.PartitionPlan{
					A:     comp,
					B:     api,
					From:  at,
					Until: at.Add(sim.Duration(rng.Int63n(int64(2 * sim.Second)))),
				})
			case 2: // freeze a random apiserver from the store
				if len(t.Topology.APIServers) == 0 {
					continue
				}
				api := t.Topology.APIServers[rng.Intn(len(t.Topology.APIServers))]
				sub = append(sub, core.StalenessPlan{
					Victim: api,
					From:   at,
					Until:  at.Add(sim.Duration(rng.Int63n(int64(2 * sim.Second)))),
				})
			}
		}
		plans = append(plans, core.SequencePlan{Name: fmt.Sprintf("random-%d", i), Plans: sub})
	}
	return plans
}

// CrashTuner crashes a component immediately after it observes a
// membership ("meta-info") update, then restarts it — the heuristic of
// Lu et al. (SOSP'19) as characterized by the paper's Section 5: "crashing
// a node immediately creates diverging (H', S') at other components".
type CrashTuner struct{}

// crashTunerRestartDelay is how long a CrashTuner victim stays down.
const crashTunerRestartDelay = 500 * sim.Millisecond

// Name implements core.Strategy.
func (CrashTuner) Name() string { return "crashtuner" }

// Plans implements core.Strategy.
func (CrashTuner) Plans(t core.Target, ref *trace.Trace) []core.Plan {
	restartable := map[sim.NodeID]bool{}
	for _, id := range t.Topology.Restartable {
		restartable[id] = true
	}
	var plans []core.Plan
	// Crash right after a component *observes* a membership update...
	for _, d := range ref.Deliveries {
		if !membershipKinds[d.Kind] || !restartable[d.To] {
			continue
		}
		plans = append(plans, core.CrashPlan{
			Component:    d.To,
			At:           d.Time.Add(2 * sim.Millisecond),
			RestartDelay: crashTunerRestartDelay,
		})
	}
	// ...or right after it *writes* membership state (kubelet heartbeats,
	// operator status updates) — both are "meta-info updates" in
	// CrashTuner's sense.
	for _, w := range ref.Writes {
		if !membershipKinds[w.Kind] || !restartable[w.From] {
			continue
		}
		plans = append(plans, core.CrashPlan{
			Component:    w.From,
			At:           w.Time.Add(2 * sim.Millisecond),
			RestartDelay: crashTunerRestartDelay,
		})
	}
	return dedupe(plans)
}

// CoFI partitions a component from its upstream right when membership
// state is about to change or has just changed — "a network partition
// prevents (H', S') at a component from being synchronized with (H, S)"
// (paper §5).
type CoFI struct{}

// cofiWindow is how long each CoFI partition lasts.
const cofiWindow = sim.Second

// Name implements core.Strategy.
func (CoFI) Name() string { return "cofi" }

// Plans implements core.Strategy.
func (CoFI) Plans(t core.Target, ref *trace.Trace) []core.Plan {
	var plans []core.Plan
	for _, d := range ref.Deliveries {
		if !membershipKinds[d.Kind] || d.To == "admin" {
			continue
		}
		// Partition the consumer from the apiserver that fed it, starting
		// just before the delivery (so the component misses it) ...
		plans = append(plans, core.PartitionPlan{
			A:     d.To,
			B:     d.From,
			From:  d.Time.Add(-2 * sim.Millisecond),
			Until: d.Time.Add(cofiWindow),
		})
		// ... and the apiserver from the store just before the change
		// reaches it (freezing the whole subtree's view).
		plans = append(plans, core.StalenessPlan{
			Victim: d.From,
			From:   d.Time.Add(-4 * sim.Millisecond),
			Until:  d.Time.Add(cofiWindow),
		})
	}
	return dedupe(plans)
}

func dedupe(plans []core.Plan) []core.Plan {
	seen := make(map[string]bool, len(plans))
	out := plans[:0]
	for _, p := range plans {
		if seen[p.ID()] {
			continue
		}
		seen[p.ID()] = true
		out = append(out, p)
	}
	return out
}
