package farm_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/workload"
)

// Example_operatorTest runs the paper's partial-history campaign against
// the stock Cassandra operator, the cells `phtest -targets
// cass-op-398,cass-op-400,cass-op-402 -strategies partial-history -seeds 1
// -max 400` runs, and finds the three real bugs the paper reports. Each
// detecting plan is then replayed on the fixed operator, which survives it.
func Example_operatorTest() {
	for _, name := range []string{"cass-op-398", "cass-op-400", "cass-op-402"} {
		spec := farm.TaskSpec{Target: name, Strategy: "partial-history", Seeds: []int64{1}, MaxExecutions: 400}
		res, err := farm.RunTask(spec, nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		if !res.Detected {
			fmt.Printf("%s: not found in %d executions\n", name, res.Campaign.Executions)
			continue
		}
		fmt.Printf("%s: found after %d executions: %s\n", name, res.Campaign.Executions, res.Campaign.FirstViolation.Detail)
		fmt.Printf("  plan: %s\n", res.Campaign.DetectingPlan)

		t, _ := farm.ResolveTarget(name, false)
		ref, _ := core.ReferenceSeed(t, 1)
		plans := core.NewPlanner().Plans(t, ref)
		for _, o := range res.Outcomes {
			if o.Detected {
				fixed := core.RunPlanSeed(workload.Fixed(t), plans[o.Index], 1)
				fmt.Printf("  fixed operator violates %s: %v\n", t.Bug, fixed.Detected)
				break
			}
		}
	}

	// Output:
	// cass-op-398: found after 3 executions: PVC "cass-1-data" still Bound 2.010000s after owner pod "cass-1" vanished
	//   plan: drop MODIFIED event #3 for pods/cass-1 to cassandra-operator
	//   fixed operator violates NoOrphanPVC: false
	// cass-op-400: found after 14 executions: decommission of "cass-2" still in flight 2.000000s after spec change
	//   plan: drop MODIFIED event #4 for cassandraclusters/cass to cassandra-operator
	//   fixed operator violates ScaleDownCompletes: false
	// cass-op-402: found after 246 executions: PVC "cass-1-data" deleted while owner pod "cass-1" is alive
	//   plan: freeze api-1 from 4.117807s to 6.118807s
	//   fixed operator violates NoLivePVCDeletion: false
}
