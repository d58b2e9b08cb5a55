package scheduler_test

import (
	"fmt"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

func newCluster(t *testing.T, evictFix bool, nodes ...string) *infra.Cluster {
	t.Helper()
	opts := infra.DefaultOptions()
	if len(nodes) > 0 {
		opts.Nodes = nodes
	}
	opts.EnableVolumeController = false
	opts.SchedulerEvictFix = evictFix
	c := infra.New(opts)
	c.RunFor(sim.Second)
	return c
}

func TestBindsPendingPod(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "", "v1", nil)
	c.RunFor(2 * sim.Second)
	pods := c.GroundTruth(cluster.KindPod)
	if len(pods) != 1 || pods[0].Pod.NodeName == "" {
		t.Fatalf("pod not bound: %+v", pods)
	}
}

// schedulerCalls counts the scheduler's requests of one method from now on.
func schedulerCalls(c *infra.Cluster, method *sim.Method) *int {
	n := new(int)
	c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if m.From == scheduler.ID && m.Method == method && m.Call == 0 {
			*n++
		}
		return sim.Decision{Verdict: sim.Pass}
	}))
	return n
}

func TestSpreadsByFreeCapacity(t *testing.T) {
	c := newCluster(t, false, "n1", "n2")
	for i := 0; i < 6; i++ {
		c.Admin.CreatePod(fmt.Sprintf("p%d", i), "", "v1", nil)
		c.RunFor(300 * sim.Millisecond)
	}
	c.RunFor(2 * sim.Second)
	counts := map[string]int{}
	for _, p := range c.GroundTruth(cluster.KindPod) {
		counts[p.Pod.NodeName]++
	}
	if counts["n1"] != 3 || counts["n2"] != 3 {
		t.Fatalf("placement skewed: %v", counts)
	}
}

func TestIgnoresBoundAndTerminatingPods(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("bound", "k1", "v1", nil)
	binds := schedulerCalls(c, apiserver.MethodUpdate)
	c.RunFor(sim.Second)
	c.Admin.MarkPodDeleted("bound", nil)
	c.RunFor(sim.Second)
	if *binds != 0 {
		t.Fatalf("scheduler rebound a managed pod %d times", *binds)
	}
}

func TestNoNodesRequeuesUntilNodeArrives(t *testing.T) {
	opts := infra.DefaultOptions()
	opts.Nodes = nil // no kubelets at all
	opts.EnableVolumeController = false
	c := infra.New(opts)
	c.RunFor(500 * sim.Millisecond)
	c.Admin.CreatePod("p1", "", "v1", nil)
	c.RunFor(sim.Second)
	pods := c.GroundTruth(cluster.KindPod)
	if pods[0].Pod.NodeName != "" {
		t.Fatal("pod bound with zero nodes")
	}
	// A node appears (registered directly through the admin).
	node := cluster.NewNode("late-node", "uid-late", cluster.NodeSpec{Ready: true, Capacity: 4})
	node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: "1"}}
	c.Admin.Conn().Create(node, nil)
	c.RunFor(2 * sim.Second)
	pods = c.GroundTruth(cluster.KindPod)
	if pods[0].Pod.NodeName != "late-node" {
		t.Fatalf("pod not bound to late node: %+v", pods[0].Pod)
	}
}

func TestMissedDeletionLivelockAndFix(t *testing.T) {
	for _, fix := range []bool{false, true} {
		c := newCluster(t, fix, "n1", "n2")
		// Drop the node-deletion notification to the scheduler.
		c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
			if m.Kind != apiserver.KindWatchPush || m.To != scheduler.ID {
				return sim.Decision{Verdict: sim.Pass}
			}
			for _, ev := range m.Payload.(*apiserver.WatchPushMsg).Events {
				if ev.Type == apiserver.Deleted && ev.Object.Meta.Kind == cluster.KindNode {
					return sim.Decision{Verdict: sim.Drop}
				}
			}
			return sim.Decision{Verdict: sim.Pass}
		}))
		c.Admin.DeleteNode("n1", nil)
		c.RunFor(500 * sim.Millisecond)
		nodeChecks := schedulerCalls(c, apiserver.MethodGet)
		c.Admin.CreatePod("job", "", "v1", nil)
		c.RunFor(4 * sim.Second)

		pods := c.GroundTruth(cluster.KindPod)
		if fix {
			if pods[0].Pod.NodeName != "n2" {
				t.Fatalf("fixed scheduler did not rebind to n2: %+v", pods[0].Pod)
			}
			view := c.Scheduler.NodeView()
			if len(view) != 1 || view[0] != "n2" {
				t.Fatalf("fixed scheduler view = %v", view)
			}
		} else {
			if pods[0].Pod.NodeName != "" {
				t.Fatalf("stock scheduler bound despite dead-node cache: %+v", pods[0].Pod)
			}
			if *nodeChecks < 3 {
				t.Fatalf("expected repeated bind attempts, got %d", *nodeChecks)
			}
		}
	}
}

func TestSchedulerCrashRestartRecovers(t *testing.T) {
	c := newCluster(t, false)
	if err := c.World.Crash(scheduler.ID); err != nil {
		t.Fatal(err)
	}
	c.Admin.CreatePod("p1", "", "v1", nil)
	c.RunFor(sim.Second)
	if c.GroundTruth(cluster.KindPod)[0].Pod.NodeName != "" {
		t.Fatal("pod bound while scheduler down")
	}
	if err := c.World.Restart(scheduler.ID); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * sim.Second)
	if c.GroundTruth(cluster.KindPod)[0].Pod.NodeName == "" {
		t.Fatal("restarted scheduler did not bind the pending pod")
	}
}
