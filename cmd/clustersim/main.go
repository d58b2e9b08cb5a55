// Command clustersim runs the simulated infrastructure through a chosen
// workload and prints the ground-truth outcome: final cluster state, oracle
// verdicts, and summary statistics. It is the quickest way to watch the
// Figure 1 architecture operate (optionally under a canned perturbation).
//
// Usage:
//
//	clustersim [-scenario rolling|scheduler|volume|cassandra]
//	           [-perturb none|stale-api|gap|timetravel] [-fixed] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "rolling", "workload: rolling|scheduler|volume|cassandra")
	perturb := flag.String("perturb", "none", "perturbation: none|stale-api|gap|timetravel")
	fixed := flag.Bool("fixed", false, "run the fixed component variants")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	target, plan, err := configure(*scenario, *perturb, *fixed, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	c := target.Build(*seed)
	plan.Apply(c)
	target.Workload(c)
	c.RunFor(target.Horizon)

	fmt.Printf("scenario=%s perturb=%s fixed=%v seed=%d horizon=%s\n\n",
		*scenario, *perturb, *fixed, *seed, target.Horizon)

	fmt.Println("ground truth:")
	for _, kind := range cluster.Kinds() {
		objs := c.GroundTruth(kind)
		if len(objs) == 0 {
			continue
		}
		for _, o := range objs {
			extra := ""
			switch {
			case o.Pod != nil:
				extra = fmt.Sprintf("node=%s phase=%s", o.Pod.NodeName, o.Pod.Phase)
			case o.Node != nil:
				extra = fmt.Sprintf("ready=%v", o.Node.Ready)
			case o.PVC != nil:
				extra = fmt.Sprintf("owner=%s phase=%s", o.PVC.OwnerPod, o.PVC.Phase)
			case o.Cassandra != nil:
				extra = fmt.Sprintf("replicas=%d decommissioning=%q", o.Cassandra.Replicas, o.Cassandra.Decommissioning)
			}
			fmt.Printf("  %-40s rv=%-5d %s\n", fmt.Sprintf("%s/%s", o.Meta.Kind, o.Meta.Name), o.Meta.ResourceVersion, extra)
		}
	}

	fmt.Println("\nhosts:")
	for _, node := range c.Opts.Nodes {
		fmt.Printf("  %-4s running=%v\n", node, c.Hosts[node].RunningNames())
	}

	fmt.Println("\noracles:")
	violations := c.Violations()
	if len(violations) == 0 {
		fmt.Println("  all invariants held")
	}
	for _, v := range violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}

	st := c.World.Network().Stats()
	fmt.Printf("\nnetwork: sent=%d delivered=%d dropped=%d\n",
		st.Sent, st.Delivered, st.Dropped)
	fmt.Printf("store: revision=%d keys=%d\n", c.Store.Store().Revision(), c.Store.Store().Len())
	// decoded counts the committed revisions an apiserver had to decode:
	// one written through an apiserver of the cluster is its writer's
	// object, so a healthy run decodes none.
	for _, api := range c.APIs {
		s := api.Stats()
		fmt.Printf("%s: revision=%d pushed=%d decoded=%d\n", api.ID(), api.CachedRevision(), s.RelaySends, s.ApplyDecodes)
	}
}

func configure(scenario, perturb string, fixed bool, seed int64) (core.Target, core.Plan, error) {
	var target core.Target
	switch scenario {
	case "rolling":
		target = workload.Target59848()
	case "scheduler":
		target = workload.Target56261()
	case "cassandra":
		target = workload.TargetCass398()
	case "volume":
		target = volumeTarget()
	default:
		return core.Target{}, nil, fmt.Errorf("unknown scenario %q", scenario)
	}
	if fixed {
		target = withFixes(target, scenario)
	}

	var plan core.Plan = core.NopPlan{}
	switch perturb {
	case "none":
	case "stale-api":
		plan = core.StalenessPlan{Victim: infra.APIServerID(1), From: sim.Time(sim.Second)}
	case "gap":
		switch scenario {
		case "scheduler":
			plan = core.GapPlan{Victim: scheduler.ID, Kind: cluster.KindNode, Name: "n1", Type: apiserver.Deleted, Occurrence: 1}
		case "cassandra":
			plan = core.GapPlan{Victim: cassandra.OperatorID, Kind: cluster.KindPod, Name: "cass-1", Type: apiserver.Modified, From: 0}
		default:
			plan = core.GapPlan{Victim: kubelet.NodeID("k1"), Kind: cluster.KindPod, Name: "p1", Type: apiserver.Modified, From: 0}
		}
	case "timetravel":
		comp := kubelet.NodeID("k1")
		if scenario == "cassandra" {
			comp = cassandra.OperatorID
		}
		plan = core.TimeTravelPlan{
			Component:    comp,
			StaleAPI:     infra.APIServerID(1),
			FreezeAt:     sim.Time(1500 * sim.Millisecond),
			CrashAt:      sim.Time(4 * sim.Second),
			RestartDelay: 100 * sim.Millisecond,
			HealAt:       sim.Time(6 * sim.Second),
		}
	default:
		return core.Target{}, nil, fmt.Errorf("unknown perturbation %q", perturb)
	}
	return target, plan, nil
}

// volumeTarget is the §4.2.3 volume-release scenario as a Target.
func volumeTarget() core.Target {
	build := func(seed int64) *infra.Cluster {
		opts := infra.DefaultOptions()
		opts.Seed = seed
		opts.Nodes = []string{"k1"}
		opts.EnableScheduler = false
		return infra.New(opts)
	}
	return core.Target{
		Name:  "volume-gap",
		Bug:   "NoOrphanPVC",
		Build: build,
		Workload: func(c *infra.Cluster) {
			k := c.World.Kernel()
			k.At(sim.Time(500*sim.Millisecond), func() {
				c.Admin.CreatePod("db-0", "k1", "v1", nil)
				c.Admin.CreatePVC("db-0-data", "db-0", nil)
			})
			k.At(sim.Time(2*sim.Second), func() { c.Admin.MarkPodDeleted("db-0", nil) })
		},
		Horizon: 8 * sim.Second,
		Topology: core.Topology{
			APIServers:  []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{"volume-controller", kubelet.NodeID("k1")},
		},
	}
}

// withFixes rebuilds the target with the fixed component variants.
func withFixes(t core.Target, scenario string) core.Target {
	orig := t.Build
	t.Build = func(seed int64) *infra.Cluster {
		c := orig(seed)
		_ = c
		// Rebuild with fixes: the options live inside each target's build,
		// so patch via a fresh options struct.
		opts := c.Opts
		opts.KubeletSafeRestart = true
		opts.SchedulerEvictFix = true
		opts.VolumeControllerFix = true
		if opts.Cassandra != nil {
			opts.Cassandra.Fixes = cassandra.AllFixed()
		}
		return infra.New(opts)
	}
	return t
}
