package sim

import "testing"

// The network keeps one record per directed link, created by Send and the
// setters only: a query must not grow the table, and a delivery reads the
// record its message carries.
func TestQueriesDoNotGrowLinkTable(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	before := len(n.links)
	if before != 1 {
		t.Fatalf("one Send left %d link records, want 1", before)
	}
	if n.Partitioned("b", "a") || n.Partitioned("x", "y") {
		t.Fatal("an untouched link reads partitioned")
	}
	if q := n.LinkQualityOf("b", "a"); q != (LinkQuality{}) {
		t.Fatalf("an untouched link reads degraded: %v", q)
	}
	if n.Down("x") || n.LocationOf("y") != (Location{}) {
		t.Fatal("an unknown node reads down or placed")
	}
	if len(b.got) != 1 {
		t.Fatalf("b got %d messages, want 1", len(b.got))
	}
	if len(n.links) != before {
		t.Fatalf("queries grew the link table %d -> %d", before, len(n.links))
	}
}

// Everything a link record holds rides the snapshot — partition, extra
// delay, the FIFO frontier, quality — and the restored records are copies:
// neither network can reach the other's, or the snapshot's.
func TestRoutingSnapshotRoundTripsLinkRecords(t *testing.T) {
	k, n, _, _ := newTestNet(t)
	q := LinkQuality{ExtraLatency: 3 * Millisecond}
	n.PartitionOneWay("b", "a")
	n.SetLinkQualityOneWay("a", "c", q)
	n.SetLinkDelay("a", "b", 10*Millisecond)
	n.Send("a", "b", "rpc", 1) // frontier: 11ms
	n.SetLinkDelay("a", "b", 2*Millisecond)
	snap := n.Snapshot()
	k.Drain()

	k2 := NewKernel(1)
	n2 := NewNetwork(k2, Millisecond, 0)
	n2.RestoreRouting(snap)
	b2 := &sink{id: "b"}
	n2.Register("b", b2)
	if !n2.Partitioned("b", "a") || n2.Partitioned("a", "b") {
		t.Fatal("partition did not round-trip")
	}
	if got := n2.LinkQualityOf("a", "c"); got != q {
		t.Fatalf("quality = %v, want %v", got, q)
	}
	n2.Send("a", "b", "rpc", 2) // 1ms + 2ms delay, held back to the restored frontier
	k2.Drain()
	if len(b2.got) != 1 || k2.Now() != Time(11*Millisecond) {
		t.Fatalf("delivered %d at %v, want 1 at the restored FIFO frontier 11ms", len(b2.got), k2.Now())
	}
	n2.Send("a", "b", "rpc", 3)
	k2.Drain()
	if k2.Now() != Time(14*Millisecond) {
		t.Fatalf("delivered at %v, want 14ms (restored 2ms extra delay)", k2.Now())
	}

	n2.Heal("a", "b")
	n2.PartitionOneWay("a", "b")
	n2.SetLinkQualityOneWay("a", "c", LinkQuality{})
	if n.Partitioned("a", "b") || n.LinkQualityOf("a", "c") != q {
		t.Fatal("a restored link record is shared with the network it was captured from")
	}
	if l := snap.Links[linkKey{"a", "b"}]; l.partitioned || l.lastAt != Time(11*Millisecond) {
		t.Fatalf("the snapshot changed under a restored network: %+v", l)
	}
	n.Partition("a", "c")
	if n2.Partitioned("a", "c") || snap.Links[linkKey{"a", "c"}].partitioned {
		t.Fatal("the captured network can still reach the snapshot or the restored records")
	}
}

// A message costs no allocation of its own: the delivery is a typed event
// form (no closure), the link is one record found once, and the message
// chunk (one make per msgChunkSize sends) amortises below one.
func TestSendAndDeliverAllocateNothing(t *testing.T) {
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, Millisecond/2)
	got := 0
	n.Register("b", HandlerFunc(func(*Message) { got++ }))
	payload := &struct{}{}
	for i := 0; i < 64; i++ { // warm the slot table and the link record
		n.Send("a", "b", "rpc", payload)
	}
	k.Drain()
	allocs := testing.AllocsPerRun(1000, func() {
		n.Send("a", "b", "rpc", payload)
		k.Drain()
	})
	if allocs != 0 {
		t.Fatalf("Send + deliver allocates %v per message, want 0", allocs)
	}
	if got != 64+1001 {
		t.Fatalf("delivered %d", got)
	}
}
