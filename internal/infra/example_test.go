package infra_test

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/infra"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// Example_quickstart builds the Figure 1 architecture (a store, two
// apiservers with watch caches, two kubelets, a scheduler and a volume
// controller), partitions one apiserver from the store, and shows its view
// (H', S') fall behind the ground truth (H, S) and catch up on healing:
// the staleness every partial-history bug grows from. Staleness alone
// violates no invariant; Example_rollingUpgrade shows how it becomes one.
func Example_quickstart() {
	c := infra.New(infra.DefaultOptions())
	printErr := func(err error) {
		if err != nil {
			fmt.Println("admin:", err)
		}
	}

	// The scheduler binds the pod and a kubelet runs it.
	c.Admin.CreatePod("web-0", "", "v1", printErr)
	c.RunFor(2 * sim.Second)
	pod := c.GroundTruth(cluster.KindPod)[0].Pod
	fmt.Printf("web-0 scheduled to %s, phase %s\n", pod.NodeName, pod.Phase)
	printViews(c)

	fmt.Println("-- api-2 partitioned from the store; 3 more pods --")
	c.World.Network().Partition(infra.APIServerID(1), infra.StoreID)
	for i := 1; i <= 3; i++ {
		c.Admin.CreatePod(fmt.Sprintf("web-%d", i), "", "v1", printErr)
	}
	c.RunFor(2 * sim.Second)
	printViews(c)

	fmt.Println("-- partition healed --")
	c.World.Network().Heal(infra.APIServerID(1), infra.StoreID)
	c.RunFor(2 * sim.Second)
	printViews(c)
	fmt.Printf("violations: %d\n", len(c.Violations()))

	// Output:
	// web-0 scheduled to k1, phase Running
	// ground truth: revision 19, 1 pods
	//   api-1: revision 19 (lag 0)
	//   api-2: revision 19 (lag 0)
	// -- api-2 partitioned from the store; 3 more pods --
	// ground truth: revision 44, 4 pods
	//   api-1: revision 44 (lag 0)
	//   api-2: revision 19 (lag 25)
	// -- partition healed --
	// ground truth: revision 60, 4 pods
	//   api-1: revision 60 (lag 0)
	//   api-2: revision 60 (lag 0)
	// violations: 0
}

// printViews prints the store's revision and each apiserver cache's lag
// behind it.
func printViews(c *infra.Cluster) {
	truth := c.Store.Store().Revision()
	fmt.Printf("ground truth: revision %d, %d pods\n", truth, len(c.GroundTruth(cluster.KindPod)))
	for i, api := range c.APIs {
		fmt.Printf("  api-%d: revision %d (lag %d)\n", i+1, api.CachedRevision(), truth-api.CachedRevision())
	}
}

// Example_rollingUpgrade reproduces Kubernetes-59848, Figure 2 of the
// paper, step by step, first with the stock kubelet and then with the
// fixed one, which verifies its view with a quorum read after a restart:
//
//  1. pod p1 runs on node k1; both apiservers know;
//  2. api-2 loses its connection to the store, and its cache freezes;
//  3. a rolling upgrade migrates p1 to k2 through the healthy api-1;
//  4. k1's kubelet restarts and resynchronizes with the stale api-2;
//  5. the stock kubelet starts p1 again, so p1 runs on two nodes and the
//     UniquePod safety oracle fires; the fixed kubelet refuses the stale
//     view.
func Example_rollingUpgrade() {
	for _, fixed := range []bool{false, true} {
		c := rollingUpgrade(os.Stdout, fixed)
		for _, v := range c.Violations() {
			fmt.Println("VIOLATION", v)
		}
	}

	// Output:
	// --- fixed kubelet: false ---
	// [1.200000s] 1: p1 created on k1; k1=[p1] k2=[]
	// [1.200000s] 2: api-2 partitioned at revision 10; k1=[p1] k2=[]
	// [3.200000s] 3: p1 migrated (api-1 at 30, api-2 at 10); k1=[] k2=[p1]
	// [3.300000s] 4: kubelet-k1 restarted against api-2; k1=[] k2=[p1]
	// [6.300000s] 5: settled; k1=[p1] k2=[p1]
	// VIOLATION [3.310000s] UniquePod: pod "p1" running on multiple hosts: k1,k2
	// --- fixed kubelet: true ---
	// [1.200000s] 1: p1 created on k1; k1=[p1] k2=[]
	// [1.200000s] 2: api-2 partitioned at revision 10; k1=[p1] k2=[]
	// [3.200000s] 3: p1 migrated (api-1 at 30, api-2 at 10); k1=[] k2=[p1]
	// [3.300000s] 4: kubelet-k1 restarted against api-2; k1=[] k2=[p1]
	// [6.300000s] 5: settled; k1=[] k2=[p1]
}

// rollingUpgrade runs the five steps of Example_rollingUpgrade with the
// stock (fixed=false) or fixed kubelet, narrating each step and any error
// to w, and returns the settled cluster.
func rollingUpgrade(w io.Writer, fixed bool) *infra.Cluster {
	opts := infra.DefaultOptions()
	opts.EnableScheduler = false // the pod is bound directly, as in the bug report
	opts.EnableVolumeController = false
	opts.KubeletSafeRestart = fixed
	c := infra.New(opts)
	fmt.Fprintf(w, "--- fixed kubelet: %v ---\n", fixed)
	step := func(n int, what string) {
		fmt.Fprintf(w, "[%s] %d: %s; k1=%v k2=%v\n", c.World.Now(), n, what,
			c.Hosts["k1"].RunningNames(), c.Hosts["k2"].RunningNames())
	}
	printErr := func(err error) {
		if err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}

	c.Admin.CreatePod("p1", "k1", "v1", printErr)
	c.RunFor(sim.Second)
	step(1, "p1 created on k1")

	c.World.Network().Partition(infra.APIServerID(1), infra.StoreID)
	step(2, fmt.Sprintf("api-2 partitioned at revision %d", c.APIs[1].CachedRevision()))

	c.Admin.MigratePod("p1", "k2", "v2", printErr)
	c.RunFor(2 * sim.Second)
	step(3, fmt.Sprintf("p1 migrated (api-1 at %d, api-2 at %d)", c.APIs[0].CachedRevision(), c.APIs[1].CachedRevision()))

	kl := c.Kubelet["k1"]
	printErr(c.World.Crash(kl.ID()))
	kl.SetRestartUpstream(infra.APIServerID(1))
	c.RunFor(100 * sim.Millisecond)
	printErr(c.World.Restart(kl.ID()))
	step(4, "kubelet-k1 restarted against api-2")

	c.RunFor(3 * sim.Second)
	step(5, "settled")
	return c
}

// rollingUpgradeFor runs rollingUpgrade and fails t if any step reported
// an error.
func rollingUpgradeFor(t *testing.T, fixed bool) *infra.Cluster {
	t.Helper()
	var log strings.Builder
	c := rollingUpgrade(&log, fixed)
	if strings.Contains(log.String(), "error:") {
		t.Fatalf("scenario step failed:\n%s", log.String())
	}
	return c
}

func TestK8s59848TimeTravelViolation(t *testing.T) {
	c := rollingUpgradeFor(t, false)
	if !c.Oracles.Violated(oracle.NameUniquePod) {
		t.Fatalf("expected UniquePod violation; k1=%v k2=%v",
			c.Hosts["k1"].RunningNames(), c.Hosts["k2"].RunningNames())
	}
}

func TestK8s59848FixedKubeletSafe(t *testing.T) {
	c := rollingUpgradeFor(t, true)
	if c.Oracles.Violated(oracle.NameUniquePod) {
		t.Fatalf("safe-restart kubelet still violated UniquePod: %v", c.Violations())
	}
	if _, ok := c.Hosts["k1"].Running()["p1"]; ok {
		t.Fatal("fixed kubelet still resurrected p1")
	}
}
