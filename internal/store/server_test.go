package store

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// testClient is a minimal network client for exercising Server.
type testClient struct {
	id  sim.NodeID
	rpc *sim.RPCClient
	w   *sim.World

	pushes []*WatchPush
}

func newTestClient(w *sim.World, id sim.NodeID) *testClient {
	c := &testClient{id: id, w: w}
	c.rpc = sim.NewRPCClient(w.Network(), id, 500*sim.Millisecond)
	w.Network().Register(id, c)
	return c
}

func (c *testClient) HandleMessage(m *sim.Message) {
	if c.rpc.HandleResponse(m) {
		return
	}
	if p, ok := m.Payload.(*WatchPush); ok {
		c.pushes = append(c.pushes, p)
	}
}

// call performs a synchronous-feeling RPC by stepping the kernel until the
// response (or timeout) callback fires.
func (c *testClient) call(to sim.NodeID, method *sim.Method, body any) (any, error) {
	var out any
	var outErr error
	done := false
	c.rpc.Call(to, method, body, func(b any, err error) {
		out, outErr, done = b, err, true
	})
	for !done && c.w.Kernel().Step() {
	}
	if !done {
		return nil, errors.New("no response")
	}
	return out, outErr
}

// putTxn is an unguarded transaction that writes key=value: the one write
// request the store serves.
func putTxn(key string, value []byte) *TxnRequest {
	return &TxnRequest{OnSuccess: []Op{{Type: OpPut, Key: key, Value: value}}}
}

func newServerWorld(t *testing.T) (*sim.World, *Server, *testClient) {
	t.Helper()
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	srv := NewServer(w, "etcd", New())
	cl := newTestClient(w, "client")
	return w, srv, cl
}

func TestServerPutGetRange(t *testing.T) {
	_, srv, cl := newServerWorld(t)
	if _, err := cl.call("etcd", MethodTxn, putTxn("/pods/a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	if rev := srv.Store().Revision(); rev != 1 {
		t.Fatalf("rev = %d", rev)
	}
	g, err := cl.call("etcd", MethodGet, &GetRequest{Key: "/pods/a"})
	if err != nil || !g.(*GetResponse).Found {
		t.Fatalf("get: %v %+v", err, g)
	}
	if _, err := cl.call("etcd", MethodTxn, putTxn("/pods/b", []byte("2"))); err != nil {
		t.Fatal(err)
	}
	r, err := cl.call("etcd", MethodRange, &RangeRequest{Prefix: "/pods/"})
	if err != nil {
		t.Fatal(err)
	}
	rr := r.(*RangeResponse)
	if len(rr.KVs) != 2 || rr.Revision != 2 {
		t.Fatalf("range = %+v", rr)
	}
}

func TestServerWatchPush(t *testing.T) {
	_, _, cl := newServerWorld(t)
	if _, err := cl.call("etcd", MethodWatch, &WatchRequest{Prefix: "/pods/", StartRev: 0, SubID: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call("etcd", MethodTxn, putTxn("/pods/a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call("etcd", MethodTxn, putTxn("/other", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if len(cl.pushes) != 1 {
		t.Fatalf("pushes = %d", len(cl.pushes))
	}
	p := cl.pushes[0]
	if p.SubID != 7 || len(p.Events) != 1 || p.Events[0].Key != "/pods/a" {
		t.Fatalf("push = %+v", p)
	}
}

func TestServerWatchCompactedError(t *testing.T) {
	_, srv, cl := newServerWorld(t)
	for i := 0; i < 10; i++ {
		srv.Store().Put("/k", []byte{byte(i)})
	}
	srv.Store().CompactTo(8)
	_, err := cl.call("etcd", MethodWatch, &WatchRequest{Prefix: "", StartRev: 2, SubID: 1})
	if err == nil {
		t.Fatal("watch below compaction should fail")
	}
	var remote sim.ErrRemote
	if !errors.As(err, &remote) {
		t.Fatalf("err type = %T", err)
	}
	if remote.Msg != ErrCompacted.Error() {
		t.Fatalf("err = %q", remote.Msg)
	}
}

func TestServerCrashStopsServingAndDropsWatches(t *testing.T) {
	w, srv, cl := newServerWorld(t)
	if _, err := cl.call("etcd", MethodWatch, &WatchRequest{SubID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Crash("etcd"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.call("etcd", MethodGet, &GetRequest{Key: "/a"}); !errors.Is(err, sim.ErrRPCTimeout) {
		t.Fatalf("call to crashed server: %v", err)
	}
	if err := w.Restart("etcd"); err != nil {
		t.Fatal(err)
	}
	// Data survives; watches do not.
	srv.Store().Put("/a", []byte("1"))
	w.Kernel().RunFor(100 * sim.Millisecond)
	if len(cl.pushes) != 0 {
		t.Fatal("watch survived server crash")
	}
	g, err := cl.call("etcd", MethodGet, &GetRequest{Key: "/a"})
	if err != nil || !g.(*GetResponse).Found {
		t.Fatalf("durable data lost: %v %+v", err, g)
	}
}

// The store answers and arms nothing: a crash and a restart are the only
// events a crash adds, and neither leaves anything pending behind it.
func TestOneLiveChainAcrossAShortCrash(t *testing.T) {
	steps := func(crash bool) uint64 {
		w, _, _ := newServerWorld(t)
		k := w.Kernel()
		if crash {
			k.At(sim.Time(1010*sim.Millisecond), func() { _ = w.CrashFor("etcd", 10*sim.Millisecond) })
		}
		k.Run(sim.Time(10 * sim.Second))
		if snap, ok := k.CaptureSnapshot(); !ok || len(snap.Pending) != 0 {
			t.Errorf("crashed=%v: %d events pending at 10 s (capture ok=%v), want none", crash, len(snap.Pending), ok)
		}
		return k.Steps()
	}
	// The crash itself and the restart.
	if quiet, crashed := steps(false), steps(true); crashed != quiet+2 {
		t.Errorf("%d steps over 10 s crashed for 10 ms, %d uncrashed: want 2 more", crashed, quiet)
	}
}

func TestServerTxnOverNetwork(t *testing.T) {
	_, _, cl := newServerWorld(t)
	if _, err := cl.call("etcd", MethodTxn, putTxn("/r", []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.call("etcd", MethodTxn, &TxnRequest{
		Guards:    []Cmp{{Key: "/r", Target: CmpModRevision, IntVal: 1}},
		OnSuccess: []Op{{Type: OpPut, Key: "/r", Value: []byte("v2")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*TxnResponse).Succeeded {
		t.Fatal("txn should succeed")
	}
	resp, err = cl.call("etcd", MethodTxn, &TxnRequest{
		Guards:    []Cmp{{Key: "/r", Target: CmpModRevision, IntVal: 1}},
		OnSuccess: []Op{{Type: OpPut, Key: "/r", Value: []byte("v3")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*TxnResponse).Succeeded {
		t.Fatal("stale txn should fail")
	}
}

// TestWatchPushesReResolveLinks: a subscription pushes on the link resolved
// when its watch registered, and what is configured on that link later
// still applies; a server restored into another world pushes on that
// world's link, not on the record it was captured with.
func TestWatchPushesReResolveLinks(t *testing.T) {
	w, srv, cl := newServerWorld(t)
	if _, err := cl.call("etcd", MethodWatch, &WatchRequest{Prefix: "/k", SubID: 1}); err != nil {
		t.Fatal(err)
	}
	w.Kernel().RunFor(sim.Second) // past the call's timeout: the world can be captured
	// push commits one key on srv and returns how long its push took to
	// reach client c in world pw.
	push := func(pw *sim.World, srv *Server, c *testClient) sim.Duration {
		start, n := pw.Kernel().Now(), len(c.pushes)
		srv.Store().Put("/k", []byte("v"))
		for len(c.pushes) == n {
			if !pw.Kernel().Step() {
				t.Fatal("the push never arrived")
			}
		}
		return pw.Kernel().Now().Sub(start)
	}
	steps := []struct {
		name string
		run  func() sim.Duration
		want sim.Duration
	}{
		{"registered", func() sim.Duration { return push(w, srv, cl) }, sim.Millisecond},
		{"link delayed after the watch", func() sim.Duration {
			w.Network().SetLinkDelay("etcd", "client", 4*sim.Millisecond)
			return push(w, srv, cl)
		}, 5 * sim.Millisecond},
		{"restored into another world", func() sim.Duration {
			w.Kernel().RunFor(sim.Second)
			ks, ok := w.Kernel().CaptureSnapshot()
			snap, ok2 := srv.Snapshot()
			if !ok || !ok2 {
				t.Fatal("the world could not be captured")
			}
			w2 := sim.NewRestoredWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond}, ks, w.Network().Snapshot())
			cl2 := newTestClient(w2, "client")
			srv2 := RestoreServer(w2, snap)
			w2.Network().SetLinkDelay("etcd", "client", 2*sim.Millisecond)
			before := len(cl.pushes)
			d := push(w2, srv2, cl2)
			if w.Kernel().Step() || len(cl.pushes) != before {
				t.Error("the restored server pushed on the captured world's link")
			}
			return d
		}, 3 * sim.Millisecond},
	}
	for _, s := range steps {
		if got := s.run(); got != s.want {
			t.Errorf("%s: the push took %v, want %v", s.name, got, s.want)
		}
	}
}
