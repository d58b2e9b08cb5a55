package sim

import "testing"

func TestTopologyLatencyClasses(t *testing.T) {
	topo := TopologyLatency{
		IntraRack: 250 * Microsecond,
		IntraDC:   Millisecond,
		CrossDC:   5 * Millisecond,
	}
	r0 := Location{Rack: "rack-00", Zone: "dc0-z0", DC: "dc0"}
	r0b := Location{Rack: "rack-00", Zone: "dc0-z0", DC: "dc0"}
	r1 := Location{Rack: "rack-01", Zone: "dc0-z1", DC: "dc0"}
	far := Location{Rack: "rack-02", Zone: "dc1-z0", DC: "dc1"}
	cases := []struct {
		a, b Location
		want Duration
	}{
		{r0, r0b, topo.IntraRack},
		{r0, r1, topo.IntraDC},
		{r0, far, topo.CrossDC},
		{far, r0, topo.CrossDC},
		// Rackless locations in the same DC are intra-DC, never
		// intra-rack: "" == "" must not read as rack equality.
		{Location{DC: "dc0"}, Location{DC: "dc0"}, topo.IntraDC},
	}
	for i, c := range cases {
		if got := topo.classFor(c.a, c.b); got != c.want {
			t.Errorf("case %d: classFor(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestTopologyLatencyAppliesToSend: located endpoints get the
// class-derived latency; unlocated endpoints keep the base latency.
func TestTopologyLatencyAppliesToSend(t *testing.T) {
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, 0)
	var gotAt []Duration
	sink := HandlerFunc(func(m *Message) { gotAt = append(gotAt, Duration(k.Now())) })
	for _, id := range []NodeID{"a", "b", "c", "u"} {
		n.Register(id, sink)
	}
	n.SetTopologyLatency(TopologyLatency{IntraRack: 250 * Microsecond, IntraDC: Millisecond, CrossDC: 5 * Millisecond})
	n.SetLocation("a", Location{Rack: "r0", Zone: "z0", DC: "dc0"})
	n.SetLocation("b", Location{Rack: "r0", Zone: "z0", DC: "dc0"})
	n.SetLocation("c", Location{Rack: "r9", Zone: "z0", DC: "dc1"})
	// "u" is unlocated.

	n.Send("a", "b", "x", 1) // intra-rack: 250µs
	n.Send("a", "c", "x", 2) // cross-DC: 5ms
	n.Send("a", "u", "x", 3) // unlocated peer: base 1ms
	k.RunFor(10 * Millisecond)
	want := []Duration{250 * Microsecond, Millisecond, 5 * Millisecond}
	if len(gotAt) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(gotAt))
	}
	// Deliveries are in time order: intra-rack, base, cross-DC.
	for i, w := range want {
		if gotAt[i] != w {
			t.Errorf("delivery %d at %v, want %v", i, gotAt[i], w)
		}
	}
}

// TestTopologyLatencyZeroRNGDraws: topology-derived latencies are pure
// lookups. Healthy traffic between located nodes must not consume kernel
// RNG, or enabling a topology would perturb every unrelated RNG stream
// and break byte-stable replay against flat-world campaigns.
func TestTopologyLatencyZeroRNGDraws(t *testing.T) {
	k := NewKernel(7)
	n := NewNetwork(k, Millisecond, 0)
	sink := HandlerFunc(func(m *Message) {})
	n.Register("a", sink)
	n.Register("b", sink)
	n.SetTopologyLatency(TopologyLatency{IntraRack: 250 * Microsecond, IntraDC: Millisecond, CrossDC: 5 * Millisecond})
	n.SetLocation("a", Location{Rack: "r0", DC: "dc0"})
	n.SetLocation("b", Location{Rack: "r3", DC: "dc1"})
	for i := 0; i < 500; i++ {
		n.Send("a", "b", "x", i)
		n.Send("b", "a", "x", i)
	}
	k.RunFor(100 * Millisecond)
	if got := k.RNGDraws(); got != 0 {
		t.Fatalf("healthy topology links drew %d RNG values; latency classes must be draw-free", got)
	}
}

// TestTopologySnapshotRoundTrip: locations and the latency ladder
// survive a network snapshot/restore, so forked executions keep serving
// topology latencies.
func TestTopologySnapshotRoundTrip(t *testing.T) {
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, 0)
	sink := HandlerFunc(func(m *Message) {})
	n.Register("a", sink)
	n.Register("b", sink)
	topo := TopologyLatency{IntraRack: 250 * Microsecond, IntraDC: Millisecond, CrossDC: 5 * Millisecond}
	n.SetTopologyLatency(topo)
	n.SetLocation("a", Location{Rack: "r0", Zone: "z0", DC: "dc0"})
	n.SetLocation("b", Location{Rack: "r1", Zone: "z1", DC: "dc1"})
	snap := n.Snapshot()

	k2 := NewKernel(1)
	n2 := NewNetwork(k2, Millisecond, 0)
	n2.Register("a", sink)
	n2.Register("b", sink)
	n2.RestoreRouting(snap)
	if n2.Topology() != topo {
		t.Fatalf("restored topology = %+v, want %+v", n2.Topology(), topo)
	}
	if loc := n2.LocationOf("b"); loc != (Location{Rack: "r1", Zone: "z1", DC: "dc1"}) {
		t.Fatalf("restored location of b = %+v", loc)
	}
	if got := n2.baseLatency(n2.link(linkKey{"a", "b"})); got != topo.CrossDC {
		t.Fatalf("restored base latency of a->b = %v, want %v", got, topo.CrossDC)
	}
}

// TestPlacementReResolvesLinks: a link's base latency follows its endpoints'
// placements and the ladder as they change after its first message — a
// record kept by a sender never serves a stale class.
func TestPlacementReResolvesLinks(t *testing.T) {
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, 0)
	var at []Time
	n.Register("b", HandlerFunc(func(*Message) { at = append(at, k.Now()) }))
	topo := TopologyLatency{IntraRack: 250 * Microsecond, IntraDC: 2 * Millisecond, CrossDC: 5 * Millisecond}
	send := func() Duration {
		start := k.Now()
		n.Send("a", "b", "x", nil)
		k.Drain()
		return at[len(at)-1].Sub(start)
	}
	steps := []struct {
		name string
		set  func()
		want Duration
	}{
		{"unplaced", func() {}, Millisecond},
		{"ladder without placements", func() { n.SetTopologyLatency(topo) }, Millisecond},
		{"a placed", func() { n.SetLocation("a", Location{Rack: "r0", DC: "dc0"}) }, Millisecond},
		{"b in a's rack", func() { n.SetLocation("b", Location{Rack: "r0", DC: "dc0"}) }, topo.IntraRack},
		{"b moved to another DC", func() { n.SetLocation("b", Location{Rack: "r0", DC: "dc1"}) }, topo.CrossDC},
		{"a unplaced", func() { n.SetLocation("a", Location{}) }, Millisecond},
		{"a back, ladder off", func() {
			n.SetLocation("a", Location{Rack: "r0", DC: "dc0"})
			n.SetTopologyLatency(TopologyLatency{})
		}, Millisecond},
		{"ladder on again", func() { n.SetTopologyLatency(topo) }, topo.CrossDC},
	}
	for _, s := range steps {
		s.set()
		if got := send(); got != s.want {
			t.Errorf("%s: a->b took %v, want %v", s.name, got, s.want)
		}
	}
}
