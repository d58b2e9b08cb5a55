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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "rolling", "workload: rolling|scheduler|volume|cassandra")
	perturb := fs.String("perturb", "none", "perturbation: none|stale-api|gap|timetravel")
	fixed := fs.Bool("fixed", false, "run the fixed component variants")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	target, plan, err := configure(*scenario, *perturb, *fixed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	c := target.Build(*seed)
	plan.Apply(c)
	target.Workload(c)
	c.RunFor(target.Horizon)

	fmt.Fprintf(stdout, "scenario=%s perturb=%s fixed=%v seed=%d horizon=%s\n\n",
		*scenario, *perturb, *fixed, *seed, target.Horizon)

	fmt.Fprintln(stdout, "ground truth:")
	for _, kind := range cluster.Kinds() {
		for _, o := range c.GroundTruth(kind) {
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
			fmt.Fprintf(stdout, "  %-40s rv=%-5d %s\n", fmt.Sprintf("%s/%s", o.Meta.Kind, o.Meta.Name), o.Meta.ResourceVersion, extra)
		}
	}

	fmt.Fprintln(stdout, "\nhosts:")
	for _, node := range c.Opts.Nodes {
		fmt.Fprintf(stdout, "  %-4s running=%v\n", node, c.Hosts[node].RunningNames())
	}

	fmt.Fprintln(stdout, "\noracles:")
	violations := c.Violations()
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "  all invariants held")
	}
	for _, v := range violations {
		fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
	}

	st := c.World.Network().Stats()
	fmt.Fprintf(stdout, "\nnetwork: sent=%d delivered=%d dropped=%d\n",
		st.Sent, st.Delivered, st.Dropped)
	fmt.Fprintf(stdout, "store: revision=%d keys=%d\n", c.Store.Store().Revision(), c.Store.Store().Len())
	// decoded counts the committed revisions an apiserver had to decode:
	// one written through an apiserver of the cluster is its writer's
	// object, so a healthy run decodes none.
	for _, api := range c.APIs {
		s := api.Stats()
		fmt.Fprintf(stdout, "%s: revision=%d pushed=%d decoded=%d\n", api.ID(), api.CachedRevision(), s.RelaySends, s.ApplyDecodes)
	}
	return 0
}

func configure(scenario, perturb string, fixed bool) (core.Target, core.Plan, error) {
	var target core.Target
	switch scenario {
	case "rolling":
		target = workload.Target59848()
	case "scheduler":
		target = workload.Target56261()
	case "cassandra":
		target = workload.TargetCass398()
	case "volume":
		target = workload.TargetVolumeGap()
	default:
		return core.Target{}, nil, fmt.Errorf("unknown scenario %q", scenario)
	}
	if fixed {
		target = workload.Fixed(target)
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
