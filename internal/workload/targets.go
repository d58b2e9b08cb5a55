// Package workload defines the test workloads and bug targets of the
// evaluation: for each of the five bugs the paper's tool handles
// (Kubernetes-59848, Kubernetes-56261, cassandra-operator-398/-400/-402) it
// provides a deterministic cluster builder, a driving workload, and the
// oracle that defines detection — the inputs to a campaign (campaign.Engine).
package workload

import (
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// at schedules fn at absolute virtual time t on the cluster's kernel.
func at(c *infra.Cluster, t sim.Duration, fn func()) {
	c.World.Kernel().At(sim.Time(t), fn)
}

// Target59848 is the Figure 2 bug: a kubelet that restarts against a stale
// apiserver re-runs a migrated pod. Workload: run a pod on k1, then migrate
// it to k2 (a rolling upgrade step). The safety oracle is UniquePod.
//
// Note the workload contains no faults at all — staleness, the restart,
// and the upstream switch all come from the perturbation plan.
func Target59848() core.Target {
	build := func(seed int64) *infra.Cluster {
		opts := infra.DefaultOptions()
		opts.Seed = seed
		opts.EnableScheduler = false
		opts.EnableVolumeController = false
		return infra.New(opts)
	}
	return core.Target{
		Name:  "k8s-59848",
		Bug:   oracle.NameUniquePod,
		Build: build,
		Workload: func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreatePod("p1", "k1", "v1", nil) })
			at(c, 2*sim.Second, func() { c.Admin.MigratePod("p1", "k2", "v2", nil) })
		},
		Horizon: 9 * sim.Second,
		Topology: core.Topology{
			APIServers:  []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{kubelet.NodeID("k1"), kubelet.NodeID("k2")},
			Resteerable: []sim.NodeID{kubelet.NodeID("k1"), kubelet.NodeID("k2")},
		},
	}
}

// Target56261 is the scheduler observability-gap bug: a missed node
// deletion leaves a dead node in the scheduler cache and pod placement
// livelocks. Workload: delete a node, then submit a pod.
func Target56261() core.Target {
	build := func(seed int64) *infra.Cluster {
		opts := infra.DefaultOptions()
		opts.Seed = seed
		opts.Nodes = []string{"n1", "n2"}
		opts.EnableVolumeController = false
		return infra.New(opts)
	}
	return core.Target{
		Name:  "k8s-56261",
		Bug:   oracle.NameSchedulerProgress,
		Build: build,
		Workload: func(c *infra.Cluster) {
			at(c, sim.Second, func() { c.Admin.DeleteNode("n1", nil) })
			at(c, 1500*sim.Millisecond, func() { c.Admin.CreatePod("job-1", "", "v1", nil) })
		},
		Horizon: 8 * sim.Second,
		Topology: core.Topology{
			APIServers:  []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{scheduler.ID, kubelet.NodeID("n2")},
		},
	}
}

// cassOptions builds the shared Cassandra cluster configuration (stock,
// i.e. all three bugs present).
func cassOptions(seed int64) infra.Options {
	opts := infra.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = []string{"k1", "k2", "k3"}
	opts.EnableVolumeController = false
	opts.Cassandra = &infra.CassandraOptions{}
	return opts
}

func cassTopology() core.Topology {
	return core.Topology{
		APIServers: []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
		Restartable: []sim.NodeID{
			cassandra.OperatorID,
			kubelet.NodeID("k1"), kubelet.NodeID("k2"), kubelet.NodeID("k3"),
		},
		Resteerable: []sim.NodeID{cassandra.OperatorID},
	}
}

// TargetCass398 is cassandra-operator-398: a missed deletionTimestamp
// observation orphans the decommissioned member's PVC. Workload: bring up
// two members, scale down to one.
func TargetCass398() core.Target {
	return core.Target{
		Name:  "cass-op-398",
		Bug:   oracle.NameNoOrphanPVC,
		Build: func(seed int64) *infra.Cluster { return infra.New(cassOptions(seed)) },
		Workload: func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreateCassandra(cassandra.ClusterName, 2, nil) })
			at(c, 4*sim.Second, func() { c.Admin.ScaleCassandra(cassandra.ClusterName, 1, nil) })
		},
		Horizon:  12 * sim.Second,
		Topology: cassTopology(),
	}
}

// TargetCass400 is cassandra-operator-400: a stale membership view makes
// the scale-down decommission the wrong member (or skip it), wedging the
// scale-down. Workload: scale 2 → 3 → 2.
func TargetCass400() core.Target {
	return core.Target{
		Name:  "cass-op-400",
		Bug:   oracle.NameScaleDownCompletes,
		Build: func(seed int64) *infra.Cluster { return infra.New(cassOptions(seed)) },
		Workload: func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreateCassandra(cassandra.ClusterName, 2, nil) })
			at(c, 4*sim.Second, func() { c.Admin.ScaleCassandra(cassandra.ClusterName, 3, nil) })
			at(c, 8*sim.Second, func() { c.Admin.ScaleCassandra(cassandra.ClusterName, 2, nil) })
		},
		Horizon:  15 * sim.Second,
		Topology: cassTopology(),
	}
}

// TargetCass402 is cassandra-operator-402: an operator that restarts
// against a stale apiserver resumes a completed decommission and deletes a
// live member's PVC. Workload: scale 2 → 1 → 2 (decommission, then
// re-create the member).
func TargetCass402() core.Target {
	return core.Target{
		Name:  "cass-op-402",
		Bug:   oracle.NameNoLivePVCDeletion,
		Build: func(seed int64) *infra.Cluster { return infra.New(cassOptions(seed)) },
		Workload: func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreateCassandra(cassandra.ClusterName, 2, nil) })
			at(c, 4*sim.Second, func() { c.Admin.ScaleCassandra(cassandra.ClusterName, 1, nil) })
			at(c, 7*sim.Second, func() { c.Admin.ScaleCassandra(cassandra.ClusterName, 2, nil) })
		},
		Horizon:  15 * sim.Second,
		Topology: cassTopology(),
	}
}

// AllTargets returns the five Section 7 bug targets.
func AllTargets() []core.Target {
	return []core.Target{
		Target59848(),
		Target56261(),
		TargetCass398(),
		TargetCass400(),
		TargetCass402(),
	}
}

// TargetVolumeGap is the §4.2.3 volume-release gap: a volume controller
// that misses its pod's mark→delete between sparse reads never releases
// the PVC. Workload: create a pod with a claim, then delete the pod. It is
// not part of AllTargets, so no matrix or committed artifact runs it.
func TargetVolumeGap() core.Target {
	return core.Target{
		Name: "volume-gap",
		Bug:  oracle.NameNoOrphanPVC,
		Build: func(seed int64) *infra.Cluster {
			opts := infra.DefaultOptions()
			opts.Seed = seed
			opts.Nodes = []string{"k1"}
			opts.EnableScheduler = false
			return infra.New(opts)
		},
		Workload: func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() {
				c.Admin.CreatePod("db-0", "k1", "v1", nil)
				c.Admin.CreatePVC("db-0-data", "db-0", nil)
			})
			at(c, 2*sim.Second, func() { c.Admin.MarkPodDeleted("db-0", nil) })
		},
		Horizon: 8 * sim.Second,
	}
}
