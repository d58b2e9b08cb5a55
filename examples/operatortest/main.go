// Operator testing: run the paper's partial-history testing tool against
// the (buggy) Cassandra operator and watch it find the three real bugs the
// paper reports (cassandra-operator-398, -400, -402), then verify the fixed
// operator survives the same campaigns.
//
// Run with: go run ./examples/operatortest
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/operators/cassandra"
	"repro/internal/workload"
)

func main() {
	fmt.Println("== partial-history campaign against the Cassandra operator ==")
	fmt.Println()

	targets := []core.Target{
		workload.TargetCass398(),
		workload.TargetCass400(),
		workload.TargetCass402(),
	}

	fmt.Println("--- stock operator (as shipped) ---")
	detecting := map[string]core.Plan{}
	for _, t := range targets {
		res, plan := campaignWithPlan(t)
		if res.Detected {
			detecting[t.Name] = plan
			fmt.Printf("%-12s FOUND after %3d executions: %s\n", t.Name, res.Executions, res.FirstViolation.Detail)
			fmt.Printf("             triggering perturbation: %s\n", res.DetectingPlan)
		} else {
			fmt.Printf("%-12s not found in %d executions\n", t.Name, res.Executions)
		}
	}

	fmt.Println()
	fmt.Println("--- fixed operator, replaying each triggering perturbation ---")
	for _, t := range targets {
		plan, ok := detecting[t.Name]
		if !ok {
			continue
		}
		fixed := withFixedOperator(t)
		exec := core.RunPlanSeed(fixed, plan, 1)
		if exec.Detected {
			fmt.Printf("%-12s STILL BUGGY under the triggering perturbation\n", t.Name)
		} else {
			fmt.Printf("%-12s fix holds: the triggering perturbation no longer violates %s\n", t.Name, t.Bug)
		}
	}
	fmt.Println()
	fmt.Println("(note: under *unbounded* notification blackouts even fixed components")
	fmt.Println(" miss liveness deadlines — no component can act on information it never")
	fmt.Println(" receives; bounding that divergence is the paper's §6.2 epoch proposal.)")
}

// campaignWithPlan runs the campaign and also returns the detecting plan
// object itself (core.CampaignResult only carries its description).
func campaignWithPlan(t core.Target) (core.CampaignResult, core.Plan) {
	ref, _ := core.ReferenceSeed(t, 1)
	planner := core.NewPlanner()
	plans := planner.Plans(t, ref)
	res := core.CampaignResult{Target: t.Name, Strategy: planner.Name(), PlansTotal: len(plans)}
	for i, p := range plans {
		if i >= 400 {
			break
		}
		exec := core.RunPlanSeed(t, p, 1)
		res.Executions = i + 1
		if exec.Detected {
			res.Detected = true
			res.DetectingPlan = p.Describe()
			for _, v := range exec.Violations {
				if v.Oracle == t.Bug {
					fv := v
					res.FirstViolation = &fv
					break
				}
			}
			return res, p
		}
	}
	return res, nil
}

// withFixedOperator rebuilds the target's cluster with the fixed operator.
func withFixedOperator(t core.Target) core.Target {
	orig := t.Build
	t.Build = func(seed int64) *infra.Cluster {
		c := orig(seed)
		opts := c.Opts
		opts.Cassandra.Fixes = cassandra.AllFixed()
		return infra.New(opts)
	}
	return t
}
