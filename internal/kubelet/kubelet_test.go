package kubelet_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/sim"
)

func newCluster(t *testing.T, safeRestart bool) *infra.Cluster {
	t.Helper()
	opts := infra.DefaultOptions()
	opts.EnableScheduler = false
	opts.EnableVolumeController = false
	opts.KubeletSafeRestart = safeRestart
	c := infra.New(opts)
	c.RunFor(500 * sim.Millisecond)
	return c
}

func TestRegistersNodeWithHeartbeat(t *testing.T) {
	c := newCluster(t, false)
	nodes := c.GroundTruth(cluster.KindNode)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	hb1 := nodes[0].Meta.Labels
	if len(hb1) != 1 || hb1[0].Name != "heartbeat" {
		t.Fatalf("labels = %v, want the heartbeat alone", hb1)
	}
	c.RunFor(sim.Second)
	nodes = c.GroundTruth(cluster.KindNode)
	if hb2 := nodes[0].Meta.Labels; len(hb2) != 1 || hb2[0] == hb1[0] {
		t.Fatalf("heartbeat not refreshed: %v, then %v", hb1, hb2)
	}
	if !nodes[0].Node.Ready {
		t.Fatal("node not ready")
	}
}

func TestStartsAndReportsPod(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "k1", "img-1", nil)
	c.RunFor(sim.Second)
	running := c.Hosts["k1"].Running()
	ctr, ok := running["p1"]
	if !ok {
		t.Fatal("container not started")
	}
	pods := c.GroundTruth(cluster.KindPod)
	if ctr.PodUID != pods[0].Meta.UID {
		t.Fatalf("container runs pod %s, want %s", ctr.PodUID, pods[0].Meta.UID)
	}
	if pods[0].Pod.Phase != cluster.PodRunning {
		t.Fatalf("phase = %s", pods[0].Pod.Phase)
	}
	if n := c.Hosts["k1"].Generation().Value(); n != 1 {
		t.Fatalf("container set changed %d times, want one start", n)
	}
}

func TestStopsAndFinalizesTerminatingPod(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(sim.Second)
	c.Admin.MarkPodDeleted("p1", nil)
	c.RunFor(sim.Second)
	if len(c.Hosts["k1"].Running()) != 0 {
		t.Fatal("container survived deletion mark")
	}
	if len(c.GroundTruth(cluster.KindPod)) != 0 {
		t.Fatal("pod object not finalized")
	}
	if n := c.Hosts["k1"].Generation().Value(); n != 2 {
		t.Fatalf("container set changed %d times, want one start and one stop", n)
	}
}

func TestUIDChangeRestartsContainer(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(sim.Second)
	uid1 := c.Hosts["k1"].Running()["p1"].PodUID

	// Delete and re-create under the same name (new incarnation).
	c.Admin.MarkPodDeleted("p1", nil)
	c.RunFor(sim.Second)
	c.Admin.CreatePod("p1", "k1", "v2", nil)
	c.RunFor(sim.Second)
	ctr, ok := c.Hosts["k1"].Running()["p1"]
	if !ok {
		t.Fatal("new incarnation not running")
	}
	if ctr.PodUID == uid1 {
		t.Fatal("container kept the old incarnation's UID")
	}
	if pods := c.GroundTruth(cluster.KindPod); ctr.PodUID != pods[0].Meta.UID {
		t.Fatalf("container runs pod %s, want the new incarnation %s", ctr.PodUID, pods[0].Meta.UID)
	}
}

func TestContainersSurviveKubeletProcessCrash(t *testing.T) {
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(sim.Second)
	gen := c.Hosts["k1"].Generation().Value()
	if err := c.World.Crash(kubelet.NodeID("k1")); err != nil {
		t.Fatal(err)
	}
	c.RunFor(sim.Second)
	if _, ok := c.Hosts["k1"].Running()["p1"]; !ok {
		t.Fatal("container died with the kubelet process")
	}
	if err := c.World.Restart(kubelet.NodeID("k1")); err != nil {
		t.Fatal(err)
	}
	c.RunFor(sim.Second)
	// Still exactly one container; the restarted kubelet adopted it.
	if got := c.Hosts["k1"].Generation().Value(); got != gen {
		t.Fatalf("restart re-started the container: container set changed %d times", got-gen)
	}
}

func TestUpstreamFailoverSteering(t *testing.T) {
	c := newCluster(t, false)
	kl := c.Kubelet["k1"]
	if kl.Upstream() != infra.APIServerID(0) {
		t.Fatalf("initial upstream = %s", kl.Upstream())
	}
	kl.SetRestartUpstream(infra.APIServerID(1))
	if kl.Upstream() != infra.APIServerID(1) {
		t.Fatalf("upstream after steer = %s", kl.Upstream())
	}
	kl.SetRestartUpstream("api-does-not-exist")
	if kl.Upstream() != infra.APIServerID(1) {
		t.Fatal("unknown upstream changed the index")
	}
	kl.SetRestartUpstream(infra.APIServerID(0))
	if kl.Upstream() != infra.APIServerID(0) {
		t.Fatalf("steer back failed: %s", kl.Upstream())
	}
}

func TestSafeRestartWaitsForQuorumWhenStoreUnreachable(t *testing.T) {
	c := newCluster(t, true)
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(sim.Second)

	// Freeze api-2, migrate p1 away, and restart k1's kubelet against the
	// stale api-2 while it cannot reach the store: the safe kubelet must
	// do *nothing* rather than act on the frozen cache.
	c.World.Network().Partition(infra.APIServerID(1), infra.StoreID)
	c.Admin.MigratePod("p1", "k2", "v1", nil)
	c.RunFor(2 * sim.Second)
	kl := c.Kubelet["k1"]
	_ = c.World.Crash(kl.ID())
	kl.SetRestartUpstream(infra.APIServerID(1))
	c.RunFor(100 * sim.Millisecond)
	_ = c.World.Restart(kl.ID())
	c.RunFor(2 * sim.Second)
	if _, ok := c.Hosts["k1"].Running()["p1"]; ok {
		t.Fatal("safe kubelet acted on unverified state")
	}
	// Once the apiserver can reach the store again, the quorum list
	// succeeds and the kubelet converges on the truth.
	c.World.Network().Heal(infra.APIServerID(1), infra.StoreID)
	c.RunFor(2 * sim.Second)
	if _, ok := c.Hosts["k1"].Running()["p1"]; ok {
		t.Fatal("safe kubelet resurrected the migrated pod after heal")
	}
}

func TestHostReset(t *testing.T) {
	h := kubelet.NewHost("x")
	if len(h.RunningNames()) != 0 {
		t.Fatal("fresh host not empty")
	}
	c := newCluster(t, false)
	c.Admin.CreatePod("p1", "k1", "v1", nil)
	c.RunFor(sim.Second)
	c.Hosts["k1"].Reset()
	if len(c.Hosts["k1"].Running()) != 0 {
		t.Fatal("reset host still runs containers")
	}
}

// TestIdleSyncAllocatesNothing pins the cost of the sync every node runs
// ten times a second. With every pod of the world bound elsewhere, a sync
// reads the kubelet's own (empty) list and allocates nothing; before the
// pod-by-node index it copied every pod of the world into a fresh slice
// and filtered it: 1 allocation, and a walk of the whole cache. On the node
// running all twenty, a sync with nothing to change walks its pod list
// against the running containers and allocates nothing either; before the
// merge walk it built a desired map and a sorted name slice every time.
func TestIdleSyncAllocatesNothing(t *testing.T) {
	c := newCluster(t, false)
	for i := 0; i < 20; i++ {
		c.Admin.CreatePod(fmt.Sprintf("p%02d", 19-i), "k2", "v1", nil)
	}
	c.RunFor(sim.Second)
	busy := c.Hosts["k2"].Running()
	if len(busy) != 20 {
		t.Fatalf("k2 runs %d containers, want 20", len(busy))
	}
	if n := testing.AllocsPerRun(50, c.Kubelet["k2"].SyncPods); n != 0 {
		t.Fatalf("steady sync: %.0f allocs, want 0", n)
	}
	if !reflect.DeepEqual(c.Hosts["k2"].Running(), busy) {
		t.Fatal("a sync with nothing to change changed the containers")
	}
	kl := c.Kubelet["k1"]
	if n := testing.AllocsPerRun(50, kl.SyncPods); n != 0 {
		t.Fatalf("idle sync: %.0f allocs, want 0", n)
	}
	if len(c.Hosts["k1"].Running()) != 0 {
		t.Fatal("the idle node started a container")
	}
}
