package infra

import (
	"testing"

	"repro/internal/kubelet"
	"repro/internal/sim"
)

func topoOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Nodes = nil
	opts.EnableVolumeController = false
	opts.Topology = &TopologyOptions{Racks: 4, NodesPerRack: 3}
	return opts
}

// TestTopologyWorldLayout: the generated world places every process —
// workers, apiservers, and the control plane — and serves the latency
// ladder.
func TestTopologyWorldLayout(t *testing.T) {
	c := New(topoOptions(1))
	net := c.World.Network()
	topo := *c.Opts.Topology

	if len(c.Opts.Nodes) != 12 {
		t.Fatalf("generated %d nodes, want 12", len(c.Opts.Nodes))
	}
	// Rack-major naming and per-node locations.
	if c.Opts.Nodes[0] != "r00n00" || c.Opts.Nodes[11] != "r03n02" {
		t.Fatalf("unexpected node names: %v", c.Opts.Nodes)
	}
	loc := net.LocationOf(kubelet.NodeID("r02n01"))
	if loc.Rack != "rack-02" || loc.DC != "dc0" {
		t.Fatalf("r02n01 location = %+v (rack 2 should sit in dc0)", loc)
	}
	// Node objects carry the labels (they feed scheduler spread).
	c.RunFor(500 * sim.Millisecond)
	var labeled int
	for _, n := range c.GroundTruth("nodes") {
		if n.Node != nil && n.Node.Rack != "" && n.Node.DC != "" {
			labeled++
		}
	}
	if labeled != 12 {
		t.Fatalf("%d node objects carry topology labels, want 12", labeled)
	}
	// Per-rack apiserver affinity: apiserver i lives in rack i.
	for i := 0; i < c.Opts.NumAPIServers; i++ {
		loc := net.LocationOf(APIServerID(i))
		if loc.Rack != topo.RackName(i%topo.Racks) {
			t.Errorf("apiserver %d in rack %q, want %q", i, loc.Rack, topo.RackName(i%topo.Racks))
		}
	}
	// Everything else — store, scheduler, admin — is in the control rack.
	for _, id := range []sim.NodeID{StoreID, "scheduler"} {
		if loc := net.LocationOf(id); loc.Rack != "rack-ctrl" {
			t.Errorf("%s in rack %q, want rack-ctrl", id, loc.Rack)
		}
	}
	if net.Topology() == (sim.TopologyLatency{}) {
		t.Fatal("network has no topology latency ladder")
	}
}

// TestTopologyWorldDeterminism: two same-seed builds of a topology world
// run the workload-free horizon to the identical kernel step count, and
// a flat world build is unaffected by the topology code existing (its
// options carry no topology).
func TestTopologyWorldDeterminism(t *testing.T) {
	steps := func() uint64 {
		c := New(topoOptions(3))
		c.RunFor(2 * sim.Second)
		return c.World.Kernel().Steps()
	}
	a, b := steps(), steps()
	if a != b {
		t.Fatalf("same-seed topology worlds diverged: %d vs %d kernel steps", a, b)
	}
}

// TestPerRackAffinityOrdersKubeletUpstreams: with affinity on, each
// kubelet's first upstream is its rack's apiserver.
func TestPerRackAffinityOrdersKubeletUpstreams(t *testing.T) {
	c := New(topoOptions(1))
	// rack 1 prefers apiserver 1 (two apiservers: rack r -> api r%2).
	k := c.Kubelet["r01n00"]
	if k == nil {
		t.Fatal("no kubelet r01n00")
	}
	if got := k.Upstream(); got != APIServerID(1) {
		t.Fatalf("r01n00 primary upstream = %s, want %s", got, APIServerID(1))
	}
	if got := c.Kubelet["r02n00"].Upstream(); got != APIServerID(0) {
		t.Fatalf("r02n00 primary upstream = %s, want %s", got, APIServerID(0))
	}
}
