// Ablation benchmarks for the design choices DESIGN.md calls out: which
// perturbation family finds which bug (the §4.2 taxonomy pulled apart),
// and what the hardened ("fixed") configuration costs in steady state.
package partialhist

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/operators/cassandra"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// A1 — plan-family contribution: gap-only vs time-travel-only vs
// staleness-only planners against the five bugs.
// ---------------------------------------------------------------------

func familyPlanner(family string) *core.Planner {
	p := core.NewPlanner()
	p.DisableGaps = true
	p.DisableTimeTravel = true
	p.DisableStaleness = true
	switch family {
	case "gap":
		p.DisableGaps = false
	case "timetravel":
		p.DisableTimeTravel = false
	case "staleness":
		p.DisableStaleness = false
	}
	return p
}

func BenchmarkA1_PlanFamilyContribution(b *testing.B) {
	families := []string{"gap", "timetravel", "staleness"}
	targets := workload.AllTargets()
	type cell struct {
		detected bool
		execs    int
	}
	var grid [][]cell
	for iter := 0; iter < b.N; iter++ {
		grid = make([][]cell, len(targets))
		for ti := range grid {
			grid[ti] = make([]cell, len(families))
		}
		for ti, t := range targets {
			for fi, family := range families {
				res := campaign.New(campaign.Config{Workers: 4, MaxExecutions: 400}).Run(t, familyPlanner(family))
				grid[ti][fi] = cell{detected: res.Detected, execs: res.Campaign.Executions}
			}
		}
	}

	found := 0
	for ti := range targets {
		for fi := range families {
			if grid[ti][fi].detected {
				found++
			}
		}
	}
	b.ReportMetric(float64(found), "family-detections")
	printOnce("A1", func() {
		fmt.Printf("\nA1 (ablation) — which §4.2 perturbation family finds which bug\n")
		fmt.Printf("  %-13s %-18s %-18s %s\n", "bug", "gap-only", "timetravel-only", "staleness-only")
		for ti, t := range targets {
			fmt.Printf("  %-13s", t.Name)
			for fi := range families {
				c := grid[ti][fi]
				if c.detected {
					fmt.Printf(" %-18s", fmt.Sprintf("YES (%d)", c.execs))
				} else {
					fmt.Printf(" %-18s", fmt.Sprintf("no (%d)", c.execs))
				}
			}
			fmt.Println()
		}
		fmt.Printf("  (each bug class is caught by 'its' family — the taxonomy carves the\n")
		fmt.Printf("   plan space at the joints; no single family covers everything)\n")
	})
}

// ---------------------------------------------------------------------
// A2 — cost of the hardened configuration: the fixed operator's defensive
// periodic relists buy gap tolerance with extra list traffic.
// ---------------------------------------------------------------------

type a2Row struct {
	variant  string
	messages uint64
	relists  int
	writes   uint64
}

func runA2(fixes cassandra.Fixes) a2Row {
	opts := infra.DefaultOptions()
	opts.Nodes = []string{"k1", "k2", "k3"}
	opts.EnableVolumeController = false
	opts.Cassandra = &infra.CassandraOptions{Fixes: fixes}
	c := infra.New(opts)
	c.RunFor(sim.Second)
	c.Admin.CreateCassandra("cass", 3, nil)
	c.RunFor(4 * sim.Second)

	// Steady state: measure 10 virtual seconds of idle-cluster traffic.
	before := c.World.Network().Stats()
	c.RunFor(10 * sim.Second)
	after := c.World.Network().Stats()

	variant := "stock operator"
	if fixes.DefensiveRelist {
		variant = "hardened operator"
	}
	return a2Row{
		variant:  variant,
		messages: after.Sent - before.Sent,
		writes:   after.Delivered - before.Delivered,
	}
}

func BenchmarkA2_HardenedConfigCost(b *testing.B) {
	var stock, hardened a2Row
	for i := 0; i < b.N; i++ {
		stock = runA2(cassandra.Fixes{})
		hardened = runA2(cassandra.AllFixed())
	}
	overhead := float64(hardened.messages) / float64(stock.messages)
	b.ReportMetric(overhead, "hardened/stock-messages")
	printOnce("A2", func() {
		fmt.Printf("\nA2 (ablation) — steady-state cost of the hardened operator config\n")
		fmt.Printf("  (10 virtual seconds of idle 3-member cluster)\n")
		fmt.Printf("  %-20s %-16s %s\n", "variant", "messages sent", "messages delivered")
		for _, r := range []a2Row{stock, hardened} {
			fmt.Printf("  %-20s %-16d %d\n", r.variant, r.messages, r.writes)
		}
		fmt.Printf("  message overhead: %.2fx — the price of bounding how long a lost\n", overhead)
		fmt.Printf("  notification can skew the operator's view (defensive relists)\n")
	})
}
