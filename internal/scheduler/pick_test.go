package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
)

// sortPick is the scheduler's pick as it was written before the one-pass
// pick: collect every candidate, sort by (most free, lowest rack load,
// name) and take the first.
func sortPick(nodes, pods []*cluster.Object, dead map[string]bool) (string, bool) {
	type cand struct {
		name     string
		free     int
		rackLoad int
	}
	used := make(map[string]int)
	for _, p := range pods {
		if p.Pod != nil && p.Pod.NodeName != "" && !p.Terminating() {
			used[p.Pod.NodeName]++
		}
	}
	rackOf := make(map[string]string)
	for _, n := range nodes {
		if n.Node != nil && n.Node.Rack != "" {
			rackOf[n.Meta.Name] = n.Node.Rack
		}
	}
	rackLoad := make(map[string]int)
	for node, count := range used {
		if rack, ok := rackOf[node]; ok {
			rackLoad[rack] += count
		}
	}
	var cands []cand
	for _, n := range nodes {
		if n.Node == nil || !n.Node.Ready || dead[n.Meta.Name] {
			continue
		}
		free := n.Node.Capacity - used[n.Meta.Name]
		if free > 0 {
			cands = append(cands, cand{n.Meta.Name, free, rackLoad[n.Node.Rack]})
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			return cands[i].free > cands[j].free
		}
		if cands[i].rackLoad != cands[j].rackLoad {
			return cands[i].rackLoad < cands[j].rackLoad
		}
		return cands[i].name < cands[j].name
	})
	return cands[0].name, true
}

// TestPickMatchesSortedPick holds the one-pass pick to the sort it
// replaced on random worlds: racked, rackless and mixed nodes, some not
// ready, some dead, some full or over capacity, with pods bound to them,
// to nodes the scheduler never saw, terminating or unbound. Ties on free
// capacity and rack load are common, so the name tie-break is exercised.
// The last worlds are larger than pick counts on the stack.
func TestPickMatchesSortedPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for world := 0; world < 2000; world++ {
		checkPick(t, rng, world, rng.Intn(12), 30, 3)
	}
	for world := 2000; world < 2020; world++ {
		checkPick(t, rng, world, pickStack+1+rng.Intn(40), 400, 20)
	}
}

// checkPick builds one world of nNodes nodes (an unready, specless one
// after them one time in ten), fewer than maxPods pods and up to racks
// racks, and compares pick with the sort.
func checkPick(t *testing.T, rng *rand.Rand, world, nNodes, maxPods, racks int) {
	t.Helper()
	format, specless := "n%02d", "n99" // a specless node sorts last
	if nNodes > 100 {
		format, specless = "n%03d", "n999"
	}
	var nodes, pods []*cluster.Object
	dead := map[string]bool{}
	for i := 0; i < nNodes; i++ {
		spec := cluster.NodeSpec{Ready: rng.Intn(6) != 0, Capacity: rng.Intn(4)}
		if rng.Intn(3) != 0 {
			spec.Rack = fmt.Sprintf("r%d", rng.Intn(racks))
		}
		name := fmt.Sprintf(format, i)
		nodes = append(nodes, cluster.NewNode(name, "uid-"+name, spec))
		if rng.Intn(8) == 0 {
			dead[name] = true
		}
	}
	if rng.Intn(10) == 0 {
		nodes = append(nodes, &cluster.Object{Meta: cluster.Meta{Kind: cluster.KindNode, Name: specless}})
	}
	for i := rng.Intn(maxPods); i > 0; i-- {
		node := ""
		if r := rng.Intn(10); r < 8 {
			node = fmt.Sprintf(format, rng.Intn(nNodes+2))
		}
		name := fmt.Sprintf("p%02d", i)
		p := cluster.NewPod(name, "uid-"+name, cluster.PodSpec{NodeName: node})
		if rng.Intn(6) == 0 {
			p.Meta.DeletionTimestamp = 1
		}
		pods = append(pods, p)
	}
	got, gotOK := pick(nodes, pods, dead)
	want, wantOK := sortPick(nodes, pods, dead)
	if got != want || gotOK != wantOK {
		t.Fatalf("world %d: pick = %q, %v; the sort picks %q, %v", world, got, gotOK, want, wantOK)
	}
}
