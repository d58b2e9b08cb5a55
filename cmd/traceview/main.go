// Command traceview records a reference execution of a target workload and
// prints the partial-history analysis the planner works from: the committed
// ground-truth history, each component's subscriptions and deliveries, the
// causal acted-on sets, and the perturbation plans the tool would generate.
//
// With -deps it additionally prints the learned read-dependency profiles
// (internal/learn): per component, which deliveries were plausibly
// consumed — attributed writes, CAS-adjacency, cross-kind reactions,
// deletion-adjacency — the observation→action table that pruning and
// ranking decisions are a pure function of.
//
// With -artifact it switches to report mode: it loads a campaign.json file
// written by phtest -json, and for every detected failure bucket renders
// the engine's explanation — the seed-correct minimized plan, the causal
// chain from suppressed observation to oracle violation, the divergence
// metrics, and an ASCII divergence timeline.
//
// Usage:
//
//	traceview [-target k8s-59848|k8s-56261|cass-op-398|cass-op-400|cass-op-402]
//	          [-events] [-deps] [-plans N]
//	traceview -artifact campaign.json [-timeline=false]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targetName := fs.String("target", "k8s-59848", "target workload to trace")
	showEvents := fs.Bool("events", false, "dump every delivery")
	showDeps := fs.Bool("deps", false, "print learned read-dependency profiles (observation→action tables)")
	planN := fs.Int("plans", 20, "how many generated plans to list")
	artifactPath := fs.String("artifact", "", "render explanations from a phtest campaign.json artifact")
	timeline := fs.Bool("timeline", true, "with -artifact: also render ASCII divergence timelines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *artifactPath != "" {
		if err := renderArtifact(stdout, *artifactPath, *timeline); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	var target core.Target
	found := false
	for _, t := range workload.AllTargets() {
		if t.Name == *targetName {
			target, found = t, true
			break
		}
	}
	if !found {
		fmt.Fprintf(stderr, "unknown target %q\n", *targetName)
		return 2
	}

	ref, violations := core.ReferenceSeed(target, 1)

	fmt.Fprintf(stdout, "reference execution of %s (horizon %s)\n", target.Name, target.Horizon)
	fmt.Fprintf(stdout, "committed events (|H|): %d\n", len(ref.Commits))
	fmt.Fprintf(stdout, "watch deliveries:       %d\n", len(ref.Deliveries))
	fmt.Fprintf(stdout, "component writes:       %d\n", len(ref.Writes))
	if len(violations) > 0 {
		fmt.Fprintln(stdout, "UNEXPECTED reference violations:")
		for _, v := range violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	}

	fmt.Fprintln(stdout, "\nper-component view (H' consumers):")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "component\tsubscribes\tdeliveries\tdeletions-seen\twrites")
	for _, comp := range ref.Components() {
		var kinds []string
		for k := range ref.Subscriptions[comp] {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		deliveries := ref.DeliveriesTo(comp)
		deletions := 0
		for _, d := range deliveries {
			if d.EventType == "DELETED" || d.Terminating {
				deletions++
			}
		}
		writes := 0
		for _, w := range ref.Writes {
			if w.From == comp {
				writes++
			}
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%d\n", comp, kinds, len(deliveries), deletions, writes)
	}
	tw.Flush()

	if *showEvents {
		fmt.Fprintln(stdout, "\ndeliveries:")
		for _, d := range ref.Deliveries {
			mark := ""
			if d.Terminating {
				mark = " [terminating]"
			}
			fmt.Fprintf(stdout, "  %-10s rev=%-5d %-8s %s/%s -> %s (#%d)%s\n",
				d.Time, d.Revision, d.EventType, d.Kind, d.Name, d.To, d.Occurrence, mark)
		}
	}

	if *showDeps {
		printDeps(stdout, ref)
	}

	graph := trace.NewCausalGraph(ref, 0)
	fmt.Fprintln(stdout, "\nhottest deliveries (most component actions within the reaction window):")
	for i, d := range graph.HotDeliveries(8) {
		effects := graph.EffectsOf(d.Revision)
		mark := ""
		if d.Terminating || d.EventType == "DELETED" {
			mark = " [deletion-adjacent]"
		}
		fmt.Fprintf(stdout, "  %d. rev=%-5d %-8s %s/%s -> %s (%d downstream writes)%s\n",
			i+1, d.Revision, d.EventType, d.Kind, d.Name, d.To, len(effects), mark)
	}

	planner := core.NewPlanner()
	plans := planner.Plans(target, ref)
	fam := core.PlanFamilies(plans)
	fmt.Fprintf(stdout, "\ngenerated plans: %d total (gap=%d timetravel=%d staleness=%d)\n",
		len(plans), fam["gap"], fam["timetravel"], fam["staleness"])
	for i, p := range plans {
		if i >= *planN {
			fmt.Fprintf(stdout, "  ... %d more\n", len(plans)-*planN)
			break
		}
		fmt.Fprintf(stdout, "  %3d. %s\n", i+1, p.Describe())
	}
	return 0
}

// printDeps renders the learned read-dependency profiles: per component,
// the consumed deliveries with the evidence the learning phase attributes
// to each (writes in the reaction window, CAS-adjacency, cross-kind
// reactions, deletion-adjacency).
func printDeps(w io.Writer, ref *trace.Trace) {
	model := learn.Mine(ref, 0)
	fmt.Fprintf(w, "\nlearned read-dependency profiles (reaction window %s, %d consumed deliveries):\n",
		model.ReactionWindow, model.ConsumedCount())
	for _, comp := range model.Components() {
		p := model.Profiles[comp]
		fmt.Fprintf(w, "  %s: %d/%d deliveries consumed, %d writes (%d CAS), kinds=%v\n",
			p.Component, len(p.Consumed), p.Deliveries, p.Writes, p.CASWrites, p.Kinds)
		for _, c := range p.Consumed {
			d := c.Delivery
			var marks []string
			if c.DeletionAdjacent() {
				marks = append(marks, "deletion-adjacent")
			}
			if c.CrossKind {
				marks = append(marks, "cross-kind")
			}
			if c.ActedOn {
				marks = append(marks, "acted-on")
			}
			suffix := ""
			if len(marks) > 0 {
				suffix = " [" + strings.Join(marks, ",") + "]"
			}
			fmt.Fprintf(w, "    %-10s %-8s %s/%s#%d -> %d writes (%d CAS)%s\n",
				d.Time, d.EventType, d.Kind, d.Name, d.Occurrence, c.Writes, c.CASWrites, suffix)
		}
	}
}

// renderArtifact loads a phtest campaign artifact and renders every
// detected, explained failure bucket: the minimized plan, the causal
// chain, the divergence metrics, and (optionally) the ASCII timeline.
func renderArtifact(w io.Writer, path string, withTimeline bool) error {
	arts, err := campaign.ReadArtifacts(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign artifact: %s (%d campaigns)\n", path, len(arts))

	explained, detected := 0, 0
	for _, a := range arts {
		status := "no detection"
		if a.Detected {
			status = fmt.Sprintf("DETECTED (seed %d, %d execs)", a.DetectedSeed, a.Campaign.Executions)
		}
		fmt.Fprintf(w, "\n=== %s / %s — %s\n", a.Target, a.Strategy, status)
		fmt.Fprintf(w, "    seeds=%v guided=%v buckets=%d\n", a.Seeds, a.Guided, len(a.Buckets))
		for _, b := range a.Buckets {
			if !b.Detected {
				continue
			}
			detected++
			fmt.Fprintf(w, "\n  bucket %s ×%d oracles=%v (example seed %d)\n",
				b.Signature, b.Count, b.Oracles, b.ExampleSeed)
			if b.Explanation == nil {
				fmt.Fprintf(w, "    (no explanation recorded — rerun phtest with -explain)\n")
				continue
			}
			explained++
			fmt.Fprintf(w, "    minimized in %d executions\n", b.MinimizeExecutions)
			indent(w, b.Explanation.Render(), "    ")
			if withTimeline {
				fmt.Fprintln(w)
				indent(w, b.Explanation.RenderTimeline(), "    ")
			}
		}
	}
	fmt.Fprintf(w, "\n%d detected buckets, %d explained\n", detected, explained)
	return nil
}

// indent writes s to w with every line prefixed.
func indent(w io.Writer, s string, prefix string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Fprintf(w, "%s%s\n", prefix, line)
	}
}
