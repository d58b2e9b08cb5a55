package cassandra_test

import (
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/infra"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/sim"
)

func newCassCluster(t *testing.T, fixes cassandra.Fixes) *infra.Cluster {
	t.Helper()
	opts := infra.DefaultOptions()
	opts.Nodes = []string{"k1", "k2", "k3"}
	opts.EnableVolumeController = false
	opts.Cassandra = &infra.CassandraOptions{Fixes: fixes}
	c := infra.New(opts)
	c.RunFor(sim.Second)
	return c
}

func memberPods(c *infra.Cluster) []string {
	var out []string
	for _, p := range c.GroundTruth(cluster.KindPod) {
		if p.Pod != nil && p.Pod.App == "cass" && !p.Terminating() {
			out = append(out, p.Meta.Name)
		}
	}
	return out
}

func pvcNames(c *infra.Cluster) []string {
	var out []string
	for _, p := range c.GroundTruth(cluster.KindPVC) {
		out = append(out, p.Meta.Name)
	}
	return out
}

func TestOperatorScaleUpAndRun(t *testing.T) {
	c := newCassCluster(t, cassandra.Fixes{})
	c.Admin.CreateCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second)

	if got := memberPods(c); len(got) != 2 {
		t.Fatalf("members = %v, want 2", got)
	}
	if got := pvcNames(c); len(got) != 2 {
		t.Fatalf("pvcs = %v, want 2", got)
	}
	// Members get scheduled and actually run somewhere.
	running := 0
	for _, node := range []string{"k1", "k2", "k3"} {
		running += len(c.Hosts[node].Running())
	}
	if running != 2 {
		t.Fatalf("running containers = %d, want 2", running)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestOperatorCleanScaleDown(t *testing.T) {
	c := newCassCluster(t, cassandra.Fixes{})
	c.Admin.CreateCassandra("cass", 3, nil)
	c.RunFor(5 * sim.Second)
	c.Admin.ScaleCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second)

	got := memberPods(c)
	if len(got) != 2 {
		t.Fatalf("members after scale-down = %v", got)
	}
	if pvcs := pvcNames(c); len(pvcs) != 2 {
		t.Fatalf("pvcs after scale-down = %v", pvcs)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// scenario398 drops the operator's observation of the decommissioned
// member's deletionTimestamp — the observability gap behind issue 398.
func scenario398(t *testing.T, fixes cassandra.Fixes) *infra.Cluster {
	t.Helper()
	c := newCassCluster(t, fixes)
	c.Admin.CreateCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second)

	c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if m.Kind != apiserver.KindWatchPush || m.To != cassandra.OperatorID {
			return sim.Decision{Verdict: sim.Pass}
		}
		push, ok := m.Payload.(*apiserver.WatchPushMsg)
		if !ok {
			return sim.Decision{Verdict: sim.Pass}
		}
		for _, ev := range push.Events {
			if ev.Object.Meta.Kind == cluster.KindPod && ev.Object.Meta.Name == "cass-1" &&
				ev.Type == apiserver.Modified && ev.Object.Meta.DeletionTimestamp != 0 {
				return sim.Decision{Verdict: sim.Drop}
			}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))

	c.Admin.ScaleCassandra("cass", 1, nil)
	c.RunFor(8 * sim.Second)
	return c
}

func TestBug398OrphansPVC(t *testing.T) {
	c := scenario398(t, cassandra.Fixes{})
	if !c.Oracles.Violated(oracle.NameNoOrphanPVC) {
		t.Fatalf("expected NoOrphanPVC; members=%v pvcs=%v violations=%v",
			memberPods(c), pvcNames(c), c.Violations())
	}
}

func TestBug398Fixed(t *testing.T) {
	c := scenario398(t, cassandra.Fixes{Fix398: true})
	if c.Oracles.Violated(oracle.NameNoOrphanPVC) {
		t.Fatalf("fixed operator orphaned PVC: %v", c.Violations())
	}
	if pvcs := pvcNames(c); len(pvcs) != 1 {
		t.Fatalf("pvcs = %v, want only cass-0-data", pvcs)
	}
}

// scenario400 suppresses the operator's status update so ReadyMembers lags
// the real membership, then scales down: the stock operator decommissions
// the stale status tail (cass-1) instead of the true tail (cass-2).
func scenario400(t *testing.T, fixes cassandra.Fixes) *infra.Cluster {
	t.Helper()
	c := newCassCluster(t, fixes)
	c.Admin.CreateCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second) // status settles at [cass-0, cass-1]

	// Drop every status write that would record 3 ready members.
	c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if m.From != cassandra.OperatorID || m.Kind != "rpc-req:"+apiserver.MethodUpdate.Name {
			return sim.Decision{Verdict: sim.Pass}
		}
		upd, ok := m.Payload.(*apiserver.UpdateRequest)
		if !ok || upd.Object.Cassandra == nil {
			return sim.Decision{Verdict: sim.Pass}
		}
		if len(upd.Object.Cassandra.ReadyMembers) == 3 {
			return sim.Decision{Verdict: sim.Drop}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))

	c.Admin.ScaleCassandra("cass", 3, nil)
	c.RunFor(5 * sim.Second) // pods 0,1,2 run; status stuck at [0,1]
	c.Admin.ScaleCassandra("cass", 2, nil)
	c.RunFor(8 * sim.Second)
	return c
}

func TestBug400WrongDecommission(t *testing.T) {
	c := scenario400(t, cassandra.Fixes{})
	if !c.Oracles.Violated(oracle.NameScaleDownCompletes) {
		t.Fatalf("expected ScaleDownCompletes; members=%v violations=%v",
			memberPods(c), c.Violations())
	}
	// The operator drained cass-1 from its stale status instead of the
	// true tail, cass-2.
	if got := strings.Join(memberPods(c), ","); got != "cass-0,cass-2" {
		t.Fatalf("members = %s, want cass-0,cass-2: a non-tail member decommissioned", got)
	}
}

func TestBug400Fixed(t *testing.T) {
	c := scenario400(t, cassandra.Fixes{Fix400: true})
	if c.Oracles.Violated(oracle.NameScaleDownCompletes) {
		t.Fatalf("fixed operator failed scale-down: members=%v violations=%v",
			memberPods(c), c.Violations())
	}
	got := map[string]bool{}
	for _, m := range memberPods(c) {
		got[m] = true
	}
	if !got["cass-0"] || !got["cass-1"] || len(got) != 2 {
		t.Fatalf("members = %v, want exactly {cass-0, cass-1}", memberPods(c))
	}
}

// scenario402 freezes api-2 while a decommission is in flight, lets it
// complete and the member be re-created via api-1, then restarts the
// operator against the stale api-2: the resumed "decommission" destroys the
// live member's PVC.
func scenario402(t *testing.T, fixes cassandra.Fixes) *infra.Cluster {
	t.Helper()
	c := newCassCluster(t, fixes)
	c.Admin.CreateCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second)

	// Freeze api-2 the moment the CR records Decommissioning=cass-1.
	frozen := false
	freezeOnDecommission(c, &frozen)

	c.Admin.ScaleCassandra("cass", 1, nil)
	c.RunFor(5 * sim.Second) // decommission completes via api-1
	if !frozen {
		t.Fatal("api-2 was never frozen; decommission marker not observed")
	}
	c.Admin.ScaleCassandra("cass", 2, nil)
	c.RunFor(5 * sim.Second) // cass-1 re-created, running

	// Operator restarts against the stale api-2.
	op := c.Cassandra
	if err := c.World.Crash(op.ID()); err != nil {
		t.Fatal(err)
	}
	op.SetUpstream(infra.APIServerID(1))
	c.RunFor(100 * sim.Millisecond)
	if err := c.World.Restart(op.ID()); err != nil {
		t.Fatal(err)
	}
	// Heal api-2 shortly after so only the restart window is stale.
	c.World.Kernel().Schedule(300*sim.Millisecond, func() {
		c.World.Network().Heal(infra.APIServerID(1), infra.StoreID)
	})
	c.RunFor(8 * sim.Second)
	return c
}

// freezeOnDecommission partitions api-2 from the store at the commit that
// sets the CR's Decommissioning marker, so api-2's cache preserves that
// moment forever (until healed).
func freezeOnDecommission(c *infra.Cluster, frozen *bool) {
	c.Store.Store().AddNotifyHook(func(events []history.Event) {
		if *frozen {
			return
		}
		for _, e := range events {
			if e.Type != history.Put || e.Key != cluster.Key(cluster.KindCassandra, "cass") {
				continue
			}
			obj, err := cluster.Decode(e.Value, e.Revision)
			if err != nil || obj.Cassandra == nil {
				continue
			}
			if obj.Cassandra.Decommissioning == "cass-1" {
				*frozen = true
				// Cut api-2 off shortly *after* this commit's push reaches
				// it, so its frozen cache contains the Decommissioning
				// marker but nothing that follows (the drain completes
				// ~100ms later, safely outside the window).
				c.World.Kernel().Schedule(10*sim.Millisecond, func() {
					c.World.Network().Partition(infra.APIServerID(1), infra.StoreID)
				})
			}
		}
	})
}

func TestBug402DeletesLivePVC(t *testing.T) {
	c := scenario402(t, cassandra.Fixes{})
	if !c.Oracles.Violated(oracle.NameNoLivePVCDeletion) {
		t.Fatalf("expected NoLivePVCDeletion; pvcs=%v violations=%v", pvcNames(c), c.Violations())
	}
}

func TestBug402Fixed(t *testing.T) {
	c := scenario402(t, cassandra.Fixes{Fix402: true})
	if c.Oracles.Violated(oracle.NameNoLivePVCDeletion) {
		t.Fatalf("fixed operator deleted live PVC: %v", c.Violations())
	}
}
