package infra_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shadowOracles registers on a second runner the oracle set addOracles
// registers — the same constructors over the same store, hosts and region
// servers — without a single declared dependency, so that runner evaluates
// every oracle on every tick, as the tool did before oracles were gated.
// The runner is driven from a dependency-less oracle.Func added last to the
// cluster's own runner: it sees exactly the cluster's ticks, after the
// cluster's oracles, through no new kernel event and no RNG draw, so the
// simulated world is the one an unshadowed execution runs.
func shadowOracles(c *infra.Cluster) *oracle.Runner {
	r := oracle.NewRunner()
	st := c.Store.Store()
	var hosts []*kubelet.Host
	for _, node := range c.Opts.Nodes {
		hosts = append(hosts, c.Hosts[node])
	}
	if len(hosts) > 0 {
		r.Add(oracle.UniquePod(hosts))
	}
	if c.Opts.EnableScheduler {
		r.Add(oracle.SchedulerProgress(r, st, infra.OraclePatience))
	}
	if c.Opts.EnableVolumeController || c.Opts.Cassandra != nil {
		r.Add(oracle.NoOrphanPVC(r, st, infra.OraclePatience))
	}
	if c.Opts.Cassandra != nil {
		r.Add(oracle.ScaleDownCompletes(r, st, cassandra.ClusterName, infra.OraclePatience))
		oracle.InstallNoLivePVCDeletion(st, r)
	}
	c.Oracles.Add(oracle.Func{OracleName: shadowName, CheckFunc: func(now sim.Time) *oracle.Violation {
		r.CheckNow(now)
		return nil
	}})
	return r
}

const shadowName = "every-tick shadow"

// assertGatedMatchesEveryTick compares everything the two runners carry:
// the violations, in order, with their times and words, and the first-seen
// table. The oracle names guard the shadow set against drifting from
// addOracles.
func assertGatedMatchesEveryTick(t *testing.T, label string, c *infra.Cluster, shadow *oracle.Runner) {
	t.Helper()
	if got, want := c.Oracles.Violations(), shadow.Violations(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: gated violations differ from every-tick:\n gated      %v\n every tick %v", label, got, want)
	}
	if got, want := c.Oracles.Snapshot().Since, shadow.Snapshot().Since; !reflect.DeepEqual(got, want) {
		t.Errorf("%s: gated first-seen table differs from every-tick:\n gated      %v\n every tick %v", label, got, want)
	}
	var names []string
	for _, n := range c.Oracles.Names() {
		if n != shadowName {
			names = append(names, n)
		}
	}
	if want := shadow.Names(); !reflect.DeepEqual(names, want) {
		t.Errorf("%s: shadow oracle set %v is not the cluster's %v: update shadowOracles", label, want, names)
	}
}

// TestGatedOraclesMatchEveryTick is the validator of the oracle dependency
// rule (DESIGN.md §5): skipping an evaluation substitutes "the previous
// tick's answer" for the answer, and whether that class is sound — whether
// every oracle declared everything it reads — is checked by evaluating both
// ways in the same execution. On every target, over world seeds beyond 1,
// the reference run and the first planner plans must leave the gated runner
// and the every-tick runner indistinguishable.
func TestGatedOraclesMatchEveryTick(t *testing.T) {
	type row struct {
		t     core.Target
		seeds []int64
		plans int // planner plans run after the reference, from the top
		// expect names the oracle the reference run itself must make report.
		expect string
	}
	var rows []row
	for _, tg := range workload.AllTargets() {
		rows = append(rows, row{t: tg, seeds: []int64{1, 1021, 4060}, plans: 8})
	}
	// UniquePod reports on none of those: 59848 takes the planner's 97th
	// plan (freeze an apiserver, restart a kubelet onto it), at 2 ms a plan.
	rows = append(rows, row{t: workload.Target59848(), seeds: []int64{1}, plans: 100})
	// The rows above wake an oracle mostly through pods and through its
	// wait. One scripted row per dependency they leave untried, each a
	// breach that only a commit under that dependency can show its oracle:
	// the expect column is the proof that the row did produce it.
	at := func(c *infra.Cluster, d sim.Duration, fn func()) { c.World.Kernel().At(sim.Time(d), fn) }
	for _, sc := range []struct {
		name    string
		base    core.Target
		horizon sim.Duration
		script  func(c *infra.Cluster)
		expect  string
	}{
		// ScaleDownCompletes ← pods: a member lost long after the last
		// spec change, when no wait is left to run out.
		{"cass-member-loss", workload.TargetCass398(), 5 * sim.Second, func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreateCassandra("cass", 2, nil) })
			at(c, 4*sim.Second, func() { c.Admin.MarkPodDeleted("cass-1", nil) })
		}, oracle.NameScaleDownCompletes},
		// SchedulerProgress ← nodes: a pod pending past its wait for want
		// of any node is no breach until one registers, and with the
		// scheduler down nothing else is committed.
		{"k8s-node-returns", workload.Target56261(), 4 * sim.Second, func(c *infra.Cluster) {
			at(c, 300*sim.Millisecond, func() {
				_ = c.World.Crash(scheduler.ID)
				c.Admin.DeleteNode("n1", nil)
				c.Admin.DeleteNode("n2", nil)
			})
			at(c, 500*sim.Millisecond, func() { c.Admin.CreatePod("web-0", "", "v1", nil) })
			at(c, 3500*sim.Millisecond, func() { _ = c.World.Restart(kubelet.NodeID("n1")) })
		}, oracle.NameSchedulerProgress},
		// NoOrphanPVC ← PVCs: a claim bound to a pod that never existed, in
		// a world where no pod is ever committed.
		{"k8s-ownerless-pvc", core.Target{Build: func(seed int64) *infra.Cluster {
			opts := infra.DefaultOptions()
			opts.Seed = seed
			return infra.New(opts)
		}}, 3 * sim.Second, func(c *infra.Cluster) {
			at(c, 500*sim.Millisecond, func() { c.Admin.CreatePVC("vol", "ghost", nil) })
		}, oracle.NameNoOrphanPVC},
	} {
		tg := sc.base
		tg.Name, tg.Workload, tg.Horizon = sc.name, sc.script, sc.horizon
		rows = append(rows, row{t: tg, seeds: []int64{1, 1021}, expect: sc.expect})
	}
	// Racked worlds. At 100 nodes every tick follows a heartbeat and a
	// drained rack is a burst of rows in the first-seen table, but an
	// execution is a third of a second and planning one a whole second: the
	// reference run there, the perturbed runs on the 10-node worlds.
	for _, p := range []workload.ScaleProfile{workload.Scale10, workload.Scale100} {
		plans := 8
		if p == workload.Scale100 {
			plans = 0
		}
		rows = append(rows,
			row{t: workload.ScaleReplaceTarget(p), seeds: []int64{1}, plans: plans},
			row{t: workload.ScaleRackDrainTarget(p), seeds: []int64{1}, plans: plans})
	}
	violated := map[string]bool{}
	for _, r := range rows {
		for _, seed := range r.seeds {
			var c *infra.Cluster
			var shadow *oracle.Runner
			tg := r.t
			tg.Build = func(seed int64) *infra.Cluster {
				c = r.t.Build(seed)
				shadow = shadowOracles(c)
				return c
			}
			ref, _ := core.ReferenceSeed(tg, seed)
			assertGatedMatchesEveryTick(t, fmt.Sprintf("%s seed %d reference", tg.Name, seed), c, shadow)
			if r.expect != "" && !shadow.Violated(r.expect) {
				t.Errorf("%s seed %d: the script did not make %s report: nothing compared", tg.Name, seed, r.expect)
			}
			if r.plans == 0 {
				continue
			}
			ps := core.NewPlanner().Plans(r.t, ref)
			for i := 0; i < r.plans && i < len(ps); i++ {
				core.RunPlanSeed(tg, ps[i], seed)
				assertGatedMatchesEveryTick(t, fmt.Sprintf("%s seed %d plan %s", tg.Name, seed, ps[i].ID()), c, shadow)
				for _, v := range shadow.Violations() {
					violated[v.Oracle] = true
				}
			}
		}
	}
	// Agreeing on "nothing happened" proves little: the rows must have
	// made every gated oracle a target registers report.
	for _, name := range []string{oracle.NameUniquePod, oracle.NameSchedulerProgress,
		oracle.NameNoOrphanPVC, oracle.NameScaleDownCompletes} {
		if !violated[name] {
			t.Errorf("no row made %s report: the comparison never saw it cross from holding to violated", name)
		}
	}
}
