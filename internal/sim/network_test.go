package sim

import (
	"testing"
)

// sink keeps a copy of every message it is handed: the message itself is
// the network's again once HandleMessage returns.
type sink struct {
	id  NodeID
	got []Message
}

func (s *sink) HandleMessage(m *Message) { s.got = append(s.got, *m) }

func newTestNet(t *testing.T) (*Kernel, *Network, *sink, *sink) {
	t.Helper()
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, 0)
	a := &sink{id: "a"}
	b := &sink{id: "b"}
	n.Register("a", a)
	n.Register("b", b)
	return k, n, a, b
}

func TestNetworkDelivery(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.Send("a", "b", "rpc", "hello")
	k.Drain()
	if len(b.got) != 1 || b.got[0].Payload.(string) != "hello" {
		t.Fatalf("b got %v", b.got)
	}
	if k.Now() != Time(Millisecond) {
		t.Fatalf("delivered at %v, want 1ms latency", k.Now())
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNetworkFIFOPerLink(t *testing.T) {
	k, n, _, b := newTestNet(t)
	for i := 0; i < 10; i++ {
		n.Send("a", "b", "rpc", i)
	}
	k.Drain()
	if len(b.got) != 10 {
		t.Fatalf("got %d messages, want 10", len(b.got))
	}
	for i, m := range b.got {
		if m.Payload.(int) != i {
			t.Fatalf("out-of-order delivery without jitter: %v at %d", m.Payload, i)
		}
	}
}

func TestPartitionDropsAndHeals(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.Partition("a", "b")
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	if len(b.got) != 0 {
		t.Fatal("message crossed partition")
	}
	if !n.Partitioned("a", "b") || !n.Partitioned("b", "a") {
		t.Fatal("partition should be bidirectional")
	}
	n.Heal("a", "b")
	n.Send("a", "b", "rpc", 2)
	k.Drain()
	if len(b.got) != 1 || b.got[0].Payload.(int) != 2 {
		t.Fatalf("after heal got %v", b.got)
	}
}

func TestOneWayPartition(t *testing.T) {
	k, n, a, b := newTestNet(t)
	n.PartitionOneWay("a", "b")
	n.Send("a", "b", "rpc", 1)
	n.Send("b", "a", "rpc", 2)
	k.Drain()
	if len(b.got) != 0 {
		t.Fatal("a->b should be cut")
	}
	if len(a.got) != 1 {
		t.Fatal("b->a should be open")
	}
}

func TestInFlightPartitionDrops(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.Send("a", "b", "rpc", 1)
	// Partition after send but before the 1ms delivery event fires.
	k.Schedule(Millisecond/2, func() { n.Partition("a", "b") })
	k.Drain()
	if len(b.got) != 0 {
		t.Fatal("in-flight message survived partition")
	}
}

func TestDownReceiverDrops(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.SetDown("b", true)
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	if len(b.got) != 0 {
		t.Fatal("down receiver got message")
	}
	if n.Stats().DownRx != 1 {
		t.Fatalf("DownRx = %d, want 1", n.Stats().DownRx)
	}
	n.SetDown("b", false)
	n.Send("a", "b", "rpc", 2)
	k.Drain()
	if len(b.got) != 1 {
		t.Fatal("recovered receiver missed message")
	}
}

func TestInterceptorDrop(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.AddInterceptor(InterceptorFunc(func(m *Message) Decision {
		if m.Kind == "watch" {
			return Decision{Verdict: Drop}
		}
		return Decision{Verdict: Pass}
	}))
	n.Send("a", "b", "watch", 1)
	n.Send("a", "b", "rpc", 2)
	k.Drain()
	if len(b.got) != 1 || b.got[0].Payload.(int) != 2 {
		t.Fatalf("got %v, want only the rpc", b.got)
	}
}

func TestInterceptorDelayAccumulates(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.AddInterceptor(InterceptorFunc(func(m *Message) Decision {
		return Decision{Verdict: Delay, Delay: 10 * Millisecond}
	}))
	n.AddInterceptor(InterceptorFunc(func(m *Message) Decision {
		return Decision{Verdict: Delay, Delay: 5 * Millisecond}
	}))
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	if len(b.got) != 1 {
		t.Fatal("delayed message lost")
	}
	want := Time(16 * Millisecond) // 1ms base + 10 + 5
	if k.Now() != want {
		t.Fatalf("delivered at %v, want %v", k.Now(), want)
	}
}

func TestLinkDelay(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.SetLinkDelay("a", "b", 9*Millisecond)
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	if len(b.got) != 1 || k.Now() != Time(10*Millisecond) {
		t.Fatalf("delivered at %v, want 10ms", k.Now())
	}
}

type recObserver struct {
	sends, delivers int
	drops           []string
}

func (r *recObserver) OnSend(m *Message)                { r.sends++ }
func (r *recObserver) OnDeliver(m *Message)             { r.delivers++ }
func (r *recObserver) OnDrop(m *Message, reason string) { r.drops = append(r.drops, reason) }

func TestObserverLifecycle(t *testing.T) {
	k, n, _, _ := newTestNet(t)
	o := &recObserver{}
	n.AddObserver(o)
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	n.Partition("a", "b")
	n.Send("a", "b", "rpc", 2)
	k.Drain()
	if o.sends != 2 || o.delivers != 1 || len(o.drops) != 1 {
		t.Fatalf("observer = %+v", o)
	}
	if o.drops[0] != "partitioned" {
		t.Fatalf("drop reason = %q", o.drops[0])
	}
}

func TestUnknownNodeDrop(t *testing.T) {
	k, n, _, _ := newTestNet(t)
	n.Send("a", "zzz", "rpc", 1)
	k.Drain()
	if n.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

type crashableProc struct {
	id       NodeID
	crashes  int
	restarts int
}

func (p *crashableProc) ID() NodeID { return p.id }
func (p *crashableProc) Crash()     { p.crashes++ }
func (p *crashableProc) Restart()   { p.restarts++ }

func TestWorldCrashRestart(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1, Latency: Millisecond})
	p := &crashableProc{id: "p1"}
	w.AddProcess(p)
	w.Network().Register("p1", HandlerFunc(func(m *Message) {}))

	if err := w.Crash("p1"); err != nil {
		t.Fatal(err)
	}
	if !w.Crashed("p1") || p.crashes != 1 {
		t.Fatalf("crash not applied: %+v", p)
	}
	// Idempotent crash.
	if err := w.Crash("p1"); err != nil || p.crashes != 1 {
		t.Fatalf("double crash: %+v err=%v", p, err)
	}
	if err := w.Restart("p1"); err != nil {
		t.Fatal(err)
	}
	if w.Crashed("p1") || p.restarts != 1 {
		t.Fatalf("restart not applied: %+v", p)
	}
	if err := w.Crash("zzz"); err == nil {
		t.Fatal("crash of unknown process should error")
	}
}

func TestWorldCrashFor(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1, Latency: Millisecond})
	p := &crashableProc{id: "p1"}
	w.AddProcess(p)
	if err := w.CrashFor("p1", 50*Millisecond); err != nil {
		t.Fatal(err)
	}
	w.Kernel().Run(Time(25 * Millisecond))
	if !w.Crashed("p1") {
		t.Fatal("should still be down at t=25ms")
	}
	w.Kernel().Drain()
	if w.Crashed("p1") || p.restarts != 1 {
		t.Fatalf("auto-restart failed: %+v", p)
	}
}

func TestWorldProcessIDsSorted(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	for _, id := range []NodeID{"z", "a", "m"} {
		w.AddProcess(&crashableProc{id: id})
	}
	ids := w.ProcessIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "m" || ids[2] != "z" {
		t.Fatalf("ids = %v", ids)
	}
}
