package trace_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Golden state hashes per (target, seed). These pin the explorer's
// visited-set key function: an accidental change to StateHash silently
// invalidates every committed certificate, so it must show up here as a
// loud diff instead.
var stateHashGoldens = []struct {
	target string
	seed   int64
	hash   uint64
}{
	{"k8s-59848", 1, 0x4f8a9e51fafe16f8},
	{"k8s-59848", 2, 0x33f5af1eb534d388},
	{"k8s-56261", 1, 0x4bcd1102daf978fa},
	{"k8s-56261", 2, 0x172b0a7059d3220e},
	{"cass-op-398", 1, 0x8cc03df496ab5577},
	{"cass-op-398", 2, 0xcc227b50e56b7717},
	{"cass-op-400", 1, 0x7686d46c72911981},
	{"cass-op-400", 2, 0xcd655fcf05bfba1d},
	{"cass-op-402", 1, 0x1ebd94b510c512f9},
	{"cass-op-402", 2, 0x473c848939081019},
	// 50-node racked worlds: thousands of deliveries to some sixty
	// receivers.
	{"scale-rackdrain-50", 1, 0x71882738ff327b16},
	{"scale-replace-50", 1, 0x53e7bbfc540ebb40},
}

func targetByName(t *testing.T, name string) core.Target {
	t.Helper()
	p := workload.ScaleProfile{Racks: 10, NodesPerRack: 5}
	for _, tgt := range append(workload.AllTargets(), workload.ScaleRackDrainTarget(p), workload.ScaleReplaceTarget(p)) {
		if tgt.Name == name {
			return tgt
		}
	}
	t.Fatalf("unknown target %s", name)
	return core.Target{}
}

func TestStateHashGolden(t *testing.T) {
	for _, g := range stateHashGoldens {
		ref, _ := core.ReferenceSeed(targetByName(t, g.target), g.seed)
		if got := ref.StateHash(); got != g.hash {
			t.Errorf("%s seed %d: StateHash = %#016x, want %#016x (update goldens ONLY for a deliberate hash change — committed certificates key on this)",
				g.target, g.seed, got, g.hash)
		}
	}
}

// Reordering two DEPENDENT deliveries — consecutive deliveries observed
// by the same component with different decision-relevant content — must
// change the state hash: the component's observation order is exactly
// what the explorer's visited set distinguishes.
func TestStateHashDependentReorderChangesHash(t *testing.T) {
	for _, tgt := range workload.AllTargets() {
		ref, _ := core.ReferenceSeed(tgt, 1)
		i, j := findDependentPair(ref)
		if i < 0 {
			t.Fatalf("%s: no dependent delivery pair in reference trace", tgt.Name)
		}
		base := ref.StateHash()
		ref.Deliveries[i], ref.Deliveries[j] = ref.Deliveries[j], ref.Deliveries[i]
		if ref.StateHash() == base {
			t.Errorf("%s: swapping dependent deliveries %d,%d did not change StateHash", tgt.Name, i, j)
		}
	}
}

// Reordering two INDEPENDENT deliveries — addressed to different
// components — must NOT change the hash: that commutation is precisely
// the equivalence the partial-order reduction collapses.
func TestStateHashIndependentReorderPreservesHash(t *testing.T) {
	ref, _ := core.ReferenceSeed(targetByName(t, "k8s-56261"), 1)
	i, j := -1, -1
	for k := 0; k+1 < len(ref.Deliveries); k++ {
		if ref.Deliveries[k].To != ref.Deliveries[k+1].To {
			i, j = k, k+1
			break
		}
	}
	if i < 0 {
		t.Fatal("no independent adjacent pair found")
	}
	base := ref.StateHash()
	ref.Deliveries[i], ref.Deliveries[j] = ref.Deliveries[j], ref.Deliveries[i]
	if ref.StateHash() != base {
		t.Error("swapping deliveries to different components changed StateHash")
	}
}

// findDependentPair returns consecutive (in the receiver's observation
// order) delivery indices to one component whose hashed content differs.
func findDependentPair(ref *trace.Trace) (int, int) {
	last := map[sim.NodeID]int{}
	for k, d := range ref.Deliveries {
		if p, ok := last[d.To]; ok {
			a, b := ref.Deliveries[p], d
			if a.Kind != b.Kind || a.Name != b.Name || a.EventType != b.EventType || a.Terminating != b.Terminating {
				return p, k
			}
		}
		last[d.To] = k
	}
	return -1, -1
}
