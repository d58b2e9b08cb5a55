package infra

import (
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/oracle"
	"repro/internal/sim"
)

func TestClusterBootstrapsAndRegistersNodes(t *testing.T) {
	c := New(DefaultOptions())
	c.RunFor(sim.Second)
	nodes := c.GroundTruth(cluster.KindNode)
	if len(nodes) != 2 {
		t.Fatalf("registered nodes = %d, want 2", len(nodes))
	}
	for _, api := range c.APIs {
		if !api.Ready() {
			t.Fatalf("%s not ready", api.ID())
		}
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations on idle cluster: %v", c.Violations())
	}
}

func TestPodLifecycleEndToEnd(t *testing.T) {
	c := New(DefaultOptions())
	c.RunFor(500 * sim.Millisecond)
	c.Admin.CreatePod("web-0", "", "v1", nil) // scheduler path
	c.RunFor(2 * sim.Second)

	pods := c.GroundTruth(cluster.KindPod)
	if len(pods) != 1 {
		t.Fatalf("pods = %d", len(pods))
	}
	node := pods[0].Pod.NodeName
	if node == "" {
		t.Fatal("pod never scheduled")
	}
	if _, ok := c.Hosts[node].Running()["web-0"]; !ok {
		t.Fatalf("container not running on %s", node)
	}
	if pods[0].Pod.Phase != cluster.PodRunning {
		t.Fatalf("phase = %s", pods[0].Pod.Phase)
	}

	// Two-phase deletion: mark, kubelet stops container and finalizes.
	c.Admin.MarkPodDeleted("web-0", nil)
	c.RunFor(2 * sim.Second)
	if len(c.GroundTruth(cluster.KindPod)) != 0 {
		t.Fatal("pod object not finalized")
	}
	if len(c.Hosts[node].Running()) != 0 {
		t.Fatal("container still running after deletion")
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations: %v", c.Violations())
	}
}

// scenario56261 drives the scheduler observability-gap sequence.
func scenario56261(t *testing.T, evictFix bool) *Cluster {
	t.Helper()
	opts := DefaultOptions()
	opts.Nodes = []string{"n1", "n2"}
	opts.EnableVolumeController = false
	opts.SchedulerEvictFix = evictFix
	c := New(opts)
	c.RunFor(sim.Second) // nodes register, scheduler syncs

	// Drop every node-deletion notification headed to the scheduler: the
	// observability gap.
	c.World.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if m.Kind != apiserver.KindWatchPush || m.To != "scheduler" {
			return sim.Decision{Verdict: sim.Pass}
		}
		push, ok := m.Payload.(*apiserver.WatchPushMsg)
		if !ok {
			return sim.Decision{Verdict: sim.Pass}
		}
		for _, ev := range push.Events {
			if ev.Type == apiserver.Deleted && ev.Object.Meta.Kind == cluster.KindNode && ev.Object.Meta.Name == "n1" {
				return sim.Decision{Verdict: sim.Drop}
			}
		}
		return sim.Decision{Verdict: sim.Pass}
	}))

	c.Admin.DeleteNode("n1", nil)
	c.RunFor(500 * sim.Millisecond)
	c.Admin.CreatePod("job-1", "", "v1", nil)
	c.RunFor(5 * sim.Second)
	return c
}

func TestK8s56261SchedulerLivelock(t *testing.T) {
	c := scenario56261(t, false)
	if !c.Oracles.Violated(oracle.NameSchedulerProgress) {
		t.Fatalf("expected SchedulerProgress violation: %v", c.Violations())
	}
	for _, p := range c.GroundTruth(cluster.KindPod) {
		if p.Meta.Name == "job-1" && p.Pod.NodeName != "" {
			t.Fatalf("job-1 bound to %s while the scheduler's cache still holds the deleted node", p.Pod.NodeName)
		}
	}
}

func TestK8s56261FixedSchedulerEvicts(t *testing.T) {
	c := scenario56261(t, true)
	if c.Oracles.Violated(oracle.NameSchedulerProgress) {
		t.Fatalf("fixed scheduler still livelocked: %v", c.Violations())
	}
	pods := c.GroundTruth(cluster.KindPod)
	if len(pods) != 1 || pods[0].Pod.NodeName != "n2" {
		t.Fatalf("pod not rescheduled to n2: %+v", pods)
	}
}

// scenarioVolumeGap drives the [17]-style mark+delete race. The admin marks
// the pod; the kubelet finalizes it milliseconds later, so both events land
// between two of the controller's 100ms polls.
func scenarioVolumeGap(t *testing.T, fixed bool) *Cluster {
	t.Helper()
	opts := DefaultOptions()
	opts.Nodes = []string{"k1"}
	opts.EnableScheduler = false
	opts.VolumeControllerFix = fixed
	c := New(opts)
	c.RunFor(500 * sim.Millisecond)

	c.Admin.CreatePod("db-0", "k1", "v1", nil)
	c.Admin.CreatePVC("db-0-data", "db-0", nil)
	c.RunFor(sim.Second)

	c.Admin.MarkPodDeleted("db-0", nil)
	c.RunFor(4 * sim.Second)
	return c
}

func TestVolumeControllerOrphansPVC(t *testing.T) {
	c := scenarioVolumeGap(t, false)
	if !c.Oracles.Violated(oracle.NameNoOrphanPVC) {
		// The poll may have landed inside the mark→delete window; the
		// perturbation engine makes this deterministic, but at this seed
		// the race should lose.
		t.Fatalf("expected NoOrphanPVC violation; violations=%v", c.Violations())
	}
}

func TestVolumeControllerFixedReleases(t *testing.T) {
	c := scenarioVolumeGap(t, true)
	if c.Oracles.Violated(oracle.NameNoOrphanPVC) {
		t.Fatalf("fixed controller orphaned PVC: %v", c.Violations())
	}
	if pvcs := c.GroundTruth(cluster.KindPVC); len(pvcs) != 1 || pvcs[0].PVC.Phase != cluster.PVCReleased {
		t.Fatalf("fixed controller never released the PVC: %+v", pvcs)
	}
}
