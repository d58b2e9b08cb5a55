package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Scale targets: the same two Kubernetes bug shapes as Target59848 and
// Target56261, but on racked multi-DC worlds of 100+ nodes with
// churn-heavy workloads (rolling node replacement, rack drain). They are
// deliberately NOT part of AllTargets(): the committed evaluation
// artifacts (E5/E10/E11) and the "-targets all" CI smokes pin the
// five-target matrix, and growing that set would invalidate them. Scale
// targets resolve by name (farm.ResolveTarget searches both sets) and
// feed the E12 serving-path benchmark and the scale-smoke CI step.

// ScaleProfile sizes a generated topology world.
type ScaleProfile struct {
	Racks        int
	NodesPerRack int
}

// NumNodes is the worker-node count of the profile.
func (p ScaleProfile) NumNodes() int { return p.Racks * p.NodesPerRack }

// Scale10, Scale100, and Scale500 are the E12 measurement points;
// Scale100 is also the canonical CI scale-smoke world.
var (
	Scale10  = ScaleProfile{Racks: 5, NodesPerRack: 2}
	Scale100 = ScaleProfile{Racks: 10, NodesPerRack: 10}
	Scale500 = ScaleProfile{Racks: 25, NodesPerRack: 20}
)

// topology returns the profile's world layout: racks striped across two
// DCs with two zones each, and each rack preferring its own apiserver.
func (p ScaleProfile) topology() *infra.TopologyOptions {
	return &infra.TopologyOptions{Racks: p.Racks, NodesPerRack: p.NodesPerRack}
}

// scaleOptions builds the cluster options shared by both scale targets.
func scaleOptions(seed int64, p ScaleProfile, withScheduler bool) infra.Options {
	opts := infra.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = nil // generated from the topology
	opts.EnableScheduler = withScheduler
	opts.EnableVolumeController = false
	opts.Topology = p.topology()
	return opts
}

// ScaleReplaceTarget is rolling node replacement at scale: every node of
// rack 0 is replaced by its counterpart in rack 2 — the pod is migrated
// (mark-delete, wait, re-create on the new node), then the old machine is
// deleted. The destination is rack 2 rather than rack 1 deliberately:
// racks 0 and 2 share apiserver affinity (and a DC), so a staleness
// window on the other apiserver leaves the admin and both ends of the
// migration connected — the same reachability the two-node 59848 world
// has. The remaining racks carry steady background pods. The bug shape
// is Kubernetes-59848: a kubelet restarting against a stale apiserver
// re-runs a migrated pod, and with NodesPerRack replacements in flight
// the window for it recurs throughout the horizon. Oracle: UniquePod.
func ScaleReplaceTarget(p ScaleProfile) core.Target {
	topo := *p.topology()
	rack0 := topo.RackNodeNames(0)
	// Rack 2 when it exists (same apiserver affinity as rack 0); the last
	// rack otherwise.
	dstRack := 2
	if topo.Racks <= 2 {
		dstRack = topo.Racks - 1
	}
	dstNodes := topo.RackNodeNames(dstRack)
	return core.Target{
		Name:  fmt.Sprintf("scale-replace-%d", p.NumNodes()),
		Bug:   oracle.NameUniquePod,
		Build: func(seed int64) *infra.Cluster { return infra.New(scaleOptions(seed, p, false)) },
		Workload: func(c *infra.Cluster) {
			// Steady-state load: one long-lived pod per node outside the
			// replaced and destination racks.
			for r := 1; r < topo.Racks; r++ {
				if r == dstRack {
					continue
				}
				for i, node := range topo.RackNodeNames(r) {
					node, d := node, sim.Duration(r*int(topo.NodesPerRack)+i)*10*sim.Millisecond
					at(c, 300*sim.Millisecond+d, func() {
						c.Admin.CreatePod("bg-"+node, node, "v1", nil)
					})
				}
			}
			// The rolling replacement of rack 0.
			for i := range rack0 {
				i := i
				old, dst := rack0[i], dstNodes[i]
				at(c, 500*sim.Millisecond+sim.Duration(i)*60*sim.Millisecond, func() {
					c.Admin.CreatePod("web-"+old, old, "v1", nil)
				})
				at(c, 2*sim.Second+sim.Duration(i)*300*sim.Millisecond, func() {
					c.Admin.MigratePod("web-"+old, dst, "v2", nil)
				})
				at(c, 7*sim.Second+sim.Duration(i)*150*sim.Millisecond, func() {
					c.Admin.DeleteNode(old, nil)
				})
			}
		},
		Horizon: 12 * sim.Second,
		Topology: core.Topology{
			APIServers: []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{
				kubelet.NodeID(rack0[0]), kubelet.NodeID(dstNodes[0]),
			},
			Resteerable: []sim.NodeID{
				kubelet.NodeID(rack0[0]), kubelet.NodeID(dstNodes[0]),
			},
		},
	}
}

// ScaleRackDrainTarget is a rack drain with mass rescheduling: every node
// of rack 0 is deleted, then one replacement job per drained node is
// submitted unbound for the scheduler to place on the surviving racks.
// The bug shape is Kubernetes-56261 at scale: if the scheduler misses
// even one of the NodesPerRack deletion events, the dead node — with the
// most free capacity in its cache — wins placement forever and the
// rescheduling livelocks. Oracle: SchedulerProgress.
func ScaleRackDrainTarget(p ScaleProfile) core.Target {
	topo := *p.topology()
	rack0 := topo.RackNodeNames(0)
	rack1 := topo.RackNodeNames(1)
	return core.Target{
		Name:  fmt.Sprintf("scale-rackdrain-%d", p.NumNodes()),
		Bug:   oracle.NameSchedulerProgress,
		Build: func(seed int64) *infra.Cluster { return infra.New(scaleOptions(seed, p, true)) },
		Workload: func(c *infra.Cluster) {
			// Baseline bound pods on rack 1 so the surviving world is not
			// empty and topology spread has load to balance around.
			for i, node := range rack1 {
				node, d := node, sim.Duration(i)*30*sim.Millisecond
				at(c, 300*sim.Millisecond+d, func() {
					c.Admin.CreatePod("base-"+node, node, "v1", nil)
				})
			}
			// Drain rack 0...
			for i, node := range rack0 {
				node, d := node, sim.Duration(i)*40*sim.Millisecond
				at(c, sim.Second+d, func() { c.Admin.DeleteNode(node, nil) })
			}
			// ...then submit the displaced work for rescheduling.
			for i := range rack0 {
				name, d := fmt.Sprintf("job-%02d", i), sim.Duration(i)*60*sim.Millisecond
				at(c, 2500*sim.Millisecond+d, func() {
					c.Admin.CreatePod(name, "", "v1", nil)
				})
			}
		},
		Horizon: 12 * sim.Second,
		Topology: core.Topology{
			APIServers: []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{
				scheduler.ID, kubelet.NodeID(rack1[0]),
			},
		},
	}
}

// ScaleTargets returns the canonical 100-node scale targets (the CI
// scale-smoke matrix). Kept separate from AllTargets so the committed
// five-target artifacts stay byte-stable.
func ScaleTargets() []core.Target {
	return []core.Target{
		ScaleReplaceTarget(Scale100),
		ScaleRackDrainTarget(Scale100),
	}
}

// UnindexedServing returns a copy of the target whose built worlds pin
// every apiserver to the legacy scan-everything serving paths (linear
// relay fan-out, full-cache list scans, per-read decodes). The indexes
// are pure accelerations, so the variant must behave byte-identically —
// E12 commits that equivalence, with the serving counters showing what
// the indexes saved. The target name is left unchanged on purpose:
// campaign artifacts from the two variants are directly byte-comparable.
func UnindexedServing(t core.Target) core.Target {
	build := t.Build
	t.Build = func(seed int64) *infra.Cluster {
		opts := build(seed).Opts
		opts.APIUnindexedServing = true
		return infra.New(opts)
	}
	return t
}
