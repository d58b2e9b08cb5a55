package apiserver

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
)

// harness wires a store server and n apiservers into one world, plus a
// bare client node for issuing API calls.
type harness struct {
	w    *sim.World
	st   *store.Server
	apis []*Server
	cl   *testClient
}

type testClient struct {
	id     sim.NodeID
	rpc    *sim.RPCClient
	w      *sim.World
	pushes []*WatchPushMsg
}

func (c *testClient) HandleMessage(m *sim.Message) {
	if c.rpc.HandleResponse(m) {
		return
	}
	if p, ok := m.Payload.(*WatchPushMsg); ok {
		c.pushes = append(c.pushes, p)
	}
}

func (c *testClient) call(to sim.NodeID, method *sim.Method, body any) (any, error) {
	var out any
	var outErr error
	done := false
	c.rpc.Call(to, method, body, func(b any, err error) { out, outErr, done = b, err, true })
	for !done && c.w.Kernel().Step() {
	}
	if !done {
		return nil, errors.New("no response")
	}
	return out, outErr
}

func newHarness(t *testing.T, nAPI int) *harness {
	t.Helper()
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	h := &harness{w: w, st: store.NewServer(w, "etcd", store.New())}
	for i := 0; i < nAPI; i++ {
		id := sim.NodeID([]string{"api-1", "api-2", "api-3"}[i])
		h.apis = append(h.apis, New(w, id, DefaultConfig("etcd")))
	}
	h.cl = &testClient{id: "client", w: w}
	h.cl.rpc = sim.NewRPCClient(w.Network(), "client", 300*sim.Millisecond)
	w.Network().Register("client", h.cl)
	w.Kernel().RunFor(100 * sim.Millisecond) // let apiservers sync
	return h
}

func mkPod(name string, node string) *cluster.Object {
	return cluster.NewPod(name, "uid-"+name, cluster.PodSpec{NodeName: node, Phase: cluster.PodRunning})
}

func TestBootstrapReady(t *testing.T) {
	h := newHarness(t, 2)
	for _, a := range h.apis {
		if !a.Ready() {
			t.Fatalf("%s not ready after bootstrap", a.ID())
		}
	}
}

func TestCreateGetListThroughCache(t *testing.T) {
	h := newHarness(t, 2)
	resp, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")})
	if err != nil {
		t.Fatal(err)
	}
	wr := resp.(*WriteResponse)
	if wr.Object.Meta.ResourceVersion == 0 {
		t.Fatal("create did not stamp resource version")
	}
	// Both apiservers converge via their store watches.
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	for _, api := range []sim.NodeID{"api-1", "api-2"} {
		g, err := h.cl.call(api, MethodGet, &GetRequest{Kind: cluster.KindPod, Name: "p1"})
		if err != nil {
			t.Fatalf("%s get: %v", api, err)
		}
		gr := g.(*GetResponse)
		if !gr.Found || gr.Object.Pod.NodeName != "k1" {
			t.Fatalf("%s get = %+v", api, gr)
		}
		l, err := h.cl.call(api, MethodList, &ListRequest{Kind: cluster.KindPod})
		if err != nil || len(l.(*ListResponse).Objects) != 1 {
			t.Fatalf("%s list: %v %+v", api, err, l)
		}
	}
}

func TestCreateConflictAndUpdateGuards(t *testing.T) {
	h := newHarness(t, 1)
	resp, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k2")}); !IsAlreadyExists(err) {
		t.Fatalf("duplicate create: %v", err)
	}
	obj := resp.(*WriteResponse).Object
	obj.Pod.NodeName = "k2"
	u, err := h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: obj})
	if err != nil {
		t.Fatal(err)
	}
	// Update again with the stale RV → conflict.
	stale := obj.Clone()
	stale.Pod.NodeName = "k3"
	if _, err := h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: stale}); !IsConflict(err) {
		t.Fatalf("stale update: %v", err)
	}
	_ = u
}

func TestDeleteGuards(t *testing.T) {
	h := newHarness(t, 1)
	resp, _ := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")})
	rv := resp.(*WriteResponse).Object.Meta.ResourceVersion
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1", ExpectRV: rv + 99}); !IsConflict(err) {
		t.Fatalf("guarded delete with wrong RV: %v", err)
	}
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1", ExpectRV: rv}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1"}); !IsNotFound(err) {
		t.Fatalf("delete of absent object: %v", err)
	}
}

func TestWatchDeliversTypedEvents(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, StartRev: 0, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if len(h.cl.pushes) == 0 {
		t.Fatal("no watch push")
	}
	ev := h.cl.pushes[0].Events[0]
	if ev.Type != Added || ev.Object.Meta.Name != "p1" {
		t.Fatalf("event = %+v", ev)
	}
	// Update → Modified; Delete → Deleted with tombstone.
	g, _ := h.cl.call("api-1", MethodGet, &GetRequest{Kind: cluster.KindPod, Name: "p1"})
	obj := g.(*GetResponse).Object.Clone()
	obj.Pod.Phase = cluster.PodTerminating
	if _, err := h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: obj}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1"}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	var types []EventType
	for _, p := range h.cl.pushes {
		for _, e := range p.Events {
			types = append(types, e.Type)
		}
	}
	if len(types) != 3 || types[1] != Modified || types[2] != Deleted {
		t.Fatalf("event types = %v", types)
	}
}

func TestWatchWindowExpiry(t *testing.T) {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	store.NewServer(w, "etcd", store.New())
	cfg := DefaultConfig("etcd")
	cfg.WindowSize = 5
	api := New(w, "api-1", cfg)
	cl := &testClient{id: "client", w: w}
	cl.rpc = sim.NewRPCClient(w.Network(), "client", 300*sim.Millisecond)
	w.Network().Register("client", cl)
	w.Kernel().RunFor(100 * sim.Millisecond)

	for i := 0; i < 10; i++ {
		if _, err := cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod(
			string(rune('a'+i)), "k1")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Kernel().RunFor(100 * sim.Millisecond)
	// StartRev 1 fell out of the 5-event window.
	if _, err := cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, StartRev: 1, SubID: 9}); !IsTooOld(err) {
		t.Fatalf("expired window watch: %v", err)
	}
	// Watching from the cache frontier is fine.
	if _, err := cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, StartRev: api.CachedRevision(), SubID: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedAPIServerGoesStale(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)

	// Cut api-2 from the store: its cache freezes (staleness, Fig. 3a).
	h.w.Network().Partition("api-2", "etcd")
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p2", "k2")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(2 * sim.Second)

	l1, _ := h.cl.call("api-1", MethodList, &ListRequest{Kind: cluster.KindPod})
	l2, _ := h.cl.call("api-2", MethodList, &ListRequest{Kind: cluster.KindPod})
	if n := len(l1.(*ListResponse).Objects); n != 2 {
		t.Fatalf("api-1 sees %d pods, want 2", n)
	}
	if n := len(l2.(*ListResponse).Objects); n != 1 {
		t.Fatalf("api-2 sees %d pods, want 1 (stale)", n)
	}

	// Heal: api-2 catches up via its resync poll.
	h.w.Network().Heal("api-2", "etcd")
	h.w.Kernel().RunFor(2 * sim.Second)
	l2, _ = h.cl.call("api-2", MethodList, &ListRequest{Kind: cluster.KindPod})
	if n := len(l2.(*ListResponse).Objects); n != 2 {
		t.Fatalf("api-2 sees %d pods after heal, want 2", n)
	}
}

func TestQuorumReadBypassesStaleCache(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	// Hold all store->api-2 watch pushes: cache staleness without cutting
	// the RPC path.
	h.w.Network().AddInterceptor(sim.InterceptorFunc(func(m *sim.Message) sim.Decision {
		if m.Kind == store.KindWatchPush && m.To == "api-2" {
			return sim.Decision{Verdict: sim.Drop}
		}
		return sim.Decision{Verdict: Pass()}
	}))
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1"}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)

	// Cached read on api-2 still shows the deleted pod...
	g, err := h.cl.call("api-2", MethodGet, &GetRequest{Kind: cluster.KindPod, Name: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	if !g.(*GetResponse).Found {
		t.Skip("api-2 already resynced; staleness window missed")
	}
	// ...but a quorum read sees the truth.
	q, err := h.cl.call("api-2", MethodGet, &GetRequest{Kind: cluster.KindPod, Name: "p1", Quorum: true})
	if err != nil {
		t.Fatal(err)
	}
	if q.(*GetResponse).Found {
		t.Fatal("quorum read returned deleted object")
	}
}

// Pass returns the pass verdict (helper to keep the interceptor literal
// readable).
func Pass() sim.Verdict { return sim.Pass }

// A bootstrap retry belongs to the boot that armed it: pending across a
// crash and a restart, it comes due in the next boot's time and must not
// list and watch a second time beside that boot's own bootstrap.
func TestBootstrapRetryDiesWithItsBoot(t *testing.T) {
	h := newHarness(t, 1)
	api, k, timeout := h.apis[0], h.w.Kernel(), storeTimeout
	reboot := func() {
		t.Helper()
		if err := h.w.Crash("api-1"); err != nil {
			t.Fatal(err)
		}
		if err := h.w.Restart("api-1"); err != nil {
			t.Fatal(err)
		}
	}
	h.w.Network().Partition("api-1", "etcd")
	reboot() // this boot's list times out and arms a retry one more timeout on
	k.RunFor(timeout + timeout/2)
	h.w.Network().Heal("api-1", "etcd")
	reboot() // and this one lists at once
	k.RunFor(4 * timeout)
	if !api.Ready() || api.storeSubID != 2 {
		t.Fatalf("ready=%v after %d store watches, want ready after 2: the first boot's and the last's", api.Ready(), api.storeSubID)
	}
}

func TestAPIServerCrashRestartRebuildsCache(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if err := h.w.Crash("api-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodList, &ListRequest{Kind: cluster.KindPod}); !errors.Is(err, sim.ErrRPCTimeout) {
		t.Fatalf("list on crashed apiserver: %v", err)
	}
	if err := h.w.Restart("api-1"); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(200 * sim.Millisecond)
	l, err := h.cl.call("api-1", MethodList, &ListRequest{Kind: cluster.KindPod})
	if err != nil || len(l.(*ListResponse).Objects) != 1 {
		t.Fatalf("after restart: %v %+v", err, l)
	}
}
