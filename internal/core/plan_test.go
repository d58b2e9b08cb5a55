package core

import (
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/sim"
)

func smallCluster() *infra.Cluster {
	opts := infra.DefaultOptions()
	opts.EnableScheduler = false
	opts.EnableVolumeController = false
	return infra.New(opts)
}

func TestStalenessPlanFreezesAndHeals(t *testing.T) {
	c := smallCluster()
	p := StalenessPlan{Victim: infra.APIServerID(1), From: sim.Time(500 * sim.Millisecond), Until: sim.Time(1500 * sim.Millisecond)}
	p.Apply(c)

	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(600 * sim.Millisecond) // now ~800ms, inside the freeze
	if !c.World.Network().Partitioned(infra.APIServerID(1), infra.StoreID) {
		t.Fatal("victim not partitioned inside the window")
	}
	c.RunFor(sim.Second)
	if c.World.Network().Partitioned(infra.APIServerID(1), infra.StoreID) {
		t.Fatal("victim still partitioned after Until")
	}
	c.RunFor(sim.Second)
	if c.APIs[1].CachedRevision() != c.APIs[0].CachedRevision() {
		t.Fatalf("api-2 did not converge after heal: %d vs %d",
			c.APIs[1].CachedRevision(), c.APIs[0].CachedRevision())
	}
}

func TestGapPlanDropsExactOccurrence(t *testing.T) {
	c := smallCluster()
	// Drop the 2nd MODIFIED event for pods/p1 headed to kubelet-k1.
	p := GapPlan{Victim: "kubelet-k1", Kind: cluster.KindPod, Name: "p1", Type: apiserver.Modified, Occurrence: 2}
	p.Apply(c)

	seen := 0
	dropped := 0
	c.World.Network().AddObserver(observerFuncs{
		onDrop: func(m *sim.Message, reason string) {
			if m.Kind == apiserver.KindWatchPush && m.To == "kubelet-k1" && reason == "intercepted" {
				dropped++
			}
		},
		onDeliver: func(m *sim.Message) {
			if m.Kind != apiserver.KindWatchPush || m.To != "kubelet-k1" {
				return
			}
			for _, ev := range m.Payload.(*apiserver.WatchPushMsg).Events {
				if ev.Object.Meta.Name == "p1" && ev.Type == apiserver.Modified {
					seen++
				}
			}
		},
	})

	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(500 * sim.Millisecond)
	// Generate several modifications.
	for i := 0; i < 4; i++ {
		v := string(rune('a' + i))
		c.Admin.Conn().Get(cluster.KindPod, "p1", true, func(obj *cluster.Object, found bool, err error) {
			if err != nil || !found {
				return
			}
			upd := obj.Clone()
			upd.Pod.Image = v
			c.Admin.Conn().Update(upd, func(*cluster.Object, error) {})
		})
		c.RunFor(200 * sim.Millisecond)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want exactly 1", dropped)
	}
	if seen < 2 {
		t.Fatalf("later modifications should still be delivered, seen=%d", seen)
	}
}

type observerFuncs struct {
	onSend    func(*sim.Message)
	onDeliver func(*sim.Message)
	onDrop    func(*sim.Message, string)
}

func (o observerFuncs) OnSend(m *sim.Message) {
	if o.onSend != nil {
		o.onSend(m)
	}
}
func (o observerFuncs) OnDeliver(m *sim.Message) {
	if o.onDeliver != nil {
		o.onDeliver(m)
	}
}
func (o observerFuncs) OnDrop(m *sim.Message, reason string) {
	if o.onDrop != nil {
		o.onDrop(m, reason)
	}
}

func TestGapPlanWindowMode(t *testing.T) {
	c := smallCluster()
	// Unbounded window: bounded gaps can heal via the informer's liveness
	// rewatch (the apiserver replays its window), which is itself worth
	// knowing — here we keep the blackout open to assert the gap's effect.
	p := GapPlan{
		Victim: "kubelet-k1", Kind: cluster.KindPod, Name: "p1",
		From: sim.Time(1),
	}
	p.Apply(c)
	dropped := 0
	c.World.Network().AddObserver(observerFuncs{
		onDrop: func(m *sim.Message, reason string) {
			if m.To == "kubelet-k1" && reason == "intercepted" {
				dropped++
			}
		},
	})
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(2 * sim.Second)
	// The creation event lands inside the window and is dropped; the
	// kubelet learns about p1 only via its informer's initial list (which
	// happened before the pod existed) — so the container never starts.
	if dropped == 0 {
		t.Fatal("window gap dropped nothing")
	}
	if _, running := c.Hosts["k1"].Running()["p1"]; running {
		t.Fatal("kubelet ran a pod it was never told about")
	}
}

func TestTimeTravelPlanDrivesRestartOntoFrozenUpstream(t *testing.T) {
	c := smallCluster()
	p := TimeTravelPlan{
		Component:    "kubelet-k1",
		StaleAPI:     infra.APIServerID(1),
		FreezeAt:     sim.Time(400 * sim.Millisecond),
		CrashAt:      sim.Time(800 * sim.Millisecond),
		RestartDelay: 100 * sim.Millisecond,
		HealAt:       sim.Time(2 * sim.Second),
	}
	p.Apply(c)
	c.RunFor(250 * sim.Millisecond) // ~450ms: frozen
	if !c.World.Network().Partitioned(infra.APIServerID(1), infra.StoreID) {
		t.Fatal("stale api not frozen")
	}
	c.RunFor(400 * sim.Millisecond) // ~850ms: crashed
	if !c.World.Crashed("kubelet-k1") {
		t.Fatal("component not crashed at CrashAt")
	}
	c.RunFor(200 * sim.Millisecond) // ~1.05s: restarted
	if c.World.Crashed("kubelet-k1") {
		t.Fatal("component not restarted")
	}
	if got := c.Kubelet["k1"].Upstream(); got != infra.APIServerID(1) {
		t.Fatalf("restart upstream = %s, want api-2", got)
	}
	c.RunFor(1500 * sim.Millisecond)
	if c.World.Network().Partitioned(infra.APIServerID(1), infra.StoreID) {
		t.Fatal("stale api not healed at HealAt")
	}
}

func TestCrashPlanAndPartitionPlan(t *testing.T) {
	c := smallCluster()
	CrashPlan{Component: "kubelet-k2", At: sim.Time(300 * sim.Millisecond), RestartDelay: 200 * sim.Millisecond}.Apply(c)
	PartitionPlan{A: "kubelet-k1", B: infra.APIServerID(0), From: sim.Time(300 * sim.Millisecond), Until: sim.Time(600 * sim.Millisecond)}.Apply(c)
	c.RunFor(150 * sim.Millisecond) // ~350ms
	if !c.World.Crashed("kubelet-k2") {
		t.Fatal("crash plan did not fire")
	}
	if !c.World.Network().Partitioned("kubelet-k1", infra.APIServerID(0)) {
		t.Fatal("partition plan did not fire")
	}
	c.RunFor(sim.Second)
	if c.World.Crashed("kubelet-k2") {
		t.Fatal("crash plan did not restart")
	}
	if c.World.Network().Partitioned("kubelet-k1", infra.APIServerID(0)) {
		t.Fatal("partition plan did not heal")
	}
}

func TestPlanIDsUniqueAndDescriptive(t *testing.T) {
	plans := []Plan{
		StalenessPlan{Victim: "api-2", From: 1, Until: 2},
		StalenessPlan{Victim: "api-2", From: 1, Until: 3},
		GapPlan{Victim: "scheduler", Kind: cluster.KindNode, Name: "n1", Type: apiserver.Deleted, Occurrence: 1},
		GapPlan{Victim: "scheduler", Kind: cluster.KindNode, Name: "n1", Type: apiserver.Deleted, Occurrence: 2},
		TimeTravelPlan{Component: "kubelet-k1", StaleAPI: "api-2", FreezeAt: 5, CrashAt: 9},
		CrashPlan{Component: "x", At: 3},
		PartitionPlan{A: "a", B: "b", From: 1},
		SequencePlan{Name: "s1"},
		NopPlan{},
	}
	ids := map[string]bool{}
	for _, p := range plans {
		if ids[p.ID()] {
			t.Fatalf("duplicate plan id %q", p.ID())
		}
		ids[p.ID()] = true
		if p.Describe() == "" {
			t.Fatalf("plan %q has empty description", p.ID())
		}
	}
}

func TestSequencePlanAppliesAll(t *testing.T) {
	c := smallCluster()
	seq := SequencePlan{Name: "combo", Plans: []Plan{
		PartitionPlan{A: "kubelet-k1", B: infra.APIServerID(0), From: sim.Time(100 * sim.Millisecond)},
		CrashPlan{Component: "kubelet-k2", At: sim.Time(100 * sim.Millisecond), RestartDelay: sim.Second},
	}}
	seq.Apply(c)
	c.RunFor(200 * sim.Millisecond)
	if !c.World.Network().Partitioned("kubelet-k1", infra.APIServerID(0)) || !c.World.Crashed("kubelet-k2") {
		t.Fatal("sequence plan did not apply all sub-plans")
	}
}

func TestPlannerFamiliesAndDeterminism(t *testing.T) {
	target := testTarget()
	ref, _ := ReferenceSeed(target, 1)
	p1 := NewPlanner().Plans(target, ref)
	p2 := NewPlanner().Plans(target, ref)
	if len(p1) == 0 {
		t.Fatal("planner generated nothing")
	}
	if len(p1) != len(p2) {
		t.Fatalf("planner not deterministic: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].ID() != p2[i].ID() {
			t.Fatalf("plan order differs at %d: %s vs %s", i, p1[i].ID(), p2[i].ID())
		}
	}
	fam := PlanFamilies(p1)
	if fam["gap"] == 0 || fam["staleness"] == 0 || fam["timetravel"] == 0 {
		t.Fatalf("families = %v", fam)
	}
	// Deletion-adjacent drops come first.
	first, ok := p1[0].(GapPlan)
	if !ok || (first.Type != apiserver.Deleted && !strings.Contains(first.ID(), "gap/")) {
		t.Fatalf("first plan = %s", p1[0].ID())
	}
	// No plan targets the admin.
	for _, p := range p1 {
		if g, ok := p.(GapPlan); ok && g.Victim == "admin" {
			t.Fatalf("planner targeted the admin: %s", g.ID())
		}
	}
}

func testTarget() Target {
	return Target{
		Name: "test",
		Bug:  "UniquePod",
		Build: func(seed int64) *infra.Cluster {
			opts := infra.DefaultOptions()
			opts.Seed = seed
			opts.EnableVolumeController = false
			return infra.New(opts)
		},
		Workload: func(c *infra.Cluster) {
			c.World.Kernel().At(sim.Time(400*sim.Millisecond), func() { c.Admin.CreatePod("p1", "", "v1", nil) })
			c.World.Kernel().At(sim.Time(sim.Second), func() { c.Admin.MarkPodDeleted("p1", nil) })
		},
		Horizon: 4 * sim.Second,
		Topology: Topology{
			APIServers:  []sim.NodeID{infra.APIServerID(0), infra.APIServerID(1)},
			Restartable: []sim.NodeID{"kubelet-k1", "kubelet-k2", "scheduler"},
			Resteerable: []sim.NodeID{"kubelet-k1", "kubelet-k2"},
		},
	}
}

func TestRunCampaignReportsReferenceViolation(t *testing.T) {
	// A target whose oracle fires with no perturbation at all.
	target := testTarget()
	target.Bug = "SchedulerProgress"
	target.Workload = func(c *infra.Cluster) {
		// Remove all nodes' kubelets so nothing heartbeats... simply
		// create an unschedulable pod by deleting both nodes first.
		c.World.Kernel().At(sim.Time(300*sim.Millisecond), func() {
			c.Admin.DeleteNode("k1", nil)
			c.Admin.DeleteNode("k2", nil)
		})
		c.World.Kernel().At(sim.Time(600*sim.Millisecond), func() { c.Admin.CreatePod("p", "", "v1", nil) })
	}
	// With no ready nodes the SchedulerProgress oracle never fires (it
	// requires free capacity), so this campaign should simply not detect.
	ref, refViolations := ReferenceSeed(target, 1)
	plans := NewPlanner().Plans(target, ref)
	if len(plans) < 5 {
		t.Fatalf("campaign would run nothing: %d plans", len(plans))
	}
	for _, v := range refViolations {
		if v.Oracle == target.Bug {
			t.Fatalf("unexpected detection in the reference run: %+v", v)
		}
	}
	for _, p := range plans[:5] {
		if exec := RunPlanSeed(target, p, 1); exec.Detected {
			t.Fatalf("unexpected detection under %s: %+v", p.ID(), exec.Violations)
		}
	}
}
