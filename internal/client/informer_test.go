package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/store"
)

// comp is a minimal component hosting a Conn.
type comp struct {
	conn *Conn
}

func (c *comp) HandleMessage(m *sim.Message) { c.conn.HandleMessage(m) }

type fixture struct {
	w    *sim.World
	st   *store.Server
	api1 *apiserver.Server
	api2 *apiserver.Server
	c    *comp
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	f := &fixture{w: w}
	f.st = store.NewServer(w, "etcd", store.New())
	f.api1 = apiserver.New(w, "api-1", apiserver.DefaultConfig("etcd"))
	f.api2 = apiserver.New(w, "api-2", apiserver.DefaultConfig("etcd"))
	// One world, one decode memo — wired as infra wires a cluster.
	decodes := apiserver.NewDecodes()
	f.api1.ShareDecodes(decodes)
	f.api2.ShareDecodes(decodes)
	f.c = &comp{}
	f.c.conn = NewConn(w, "comp", "api-1", 300*sim.Millisecond)
	w.Network().Register("comp", f.c)
	w.Kernel().RunFor(100 * sim.Millisecond)
	return f
}

// create writes a pod via the component's conn and settles the world.
func (f *fixture) create(t *testing.T, name, node string) *cluster.Object {
	t.Helper()
	var out *cluster.Object
	var outErr error
	done := false
	f.c.conn.Create(cluster.NewPod(name, "uid-"+name, cluster.PodSpec{NodeName: node}),
		func(o *cluster.Object, err error) { out, outErr, done = o, err, true })
	for !done && f.w.Kernel().Step() {
	}
	if outErr != nil {
		t.Fatalf("create %s: %v", name, outErr)
	}
	return out
}

type countingHandler struct {
	adds, updates, deletes int
	lastAdd                string
}

func (h *countingHandler) OnAdd(o *cluster.Object)       { h.adds++; h.lastAdd = o.Meta.Name }
func (h *countingHandler) OnUpdate(_, _ *cluster.Object) { h.updates++ }
func (h *countingHandler) OnDelete(o *cluster.Object)    { h.deletes++ }

func TestInformerSyncAndStream(t *testing.T) {
	f := newFixture(t)
	f.create(t, "p1", "k1")
	f.w.Kernel().RunFor(50 * sim.Millisecond)

	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h := &countingHandler{}
	inf.AddHandler(h)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	if !inf.Synced() || inf.Len() != 1 || h.adds != 1 {
		t.Fatalf("after sync: synced=%v len=%d adds=%d", inf.Synced(), inf.Len(), h.adds)
	}
	// Live stream.
	f.create(t, "p2", "k2")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if inf.Len() != 2 || h.adds != 2 {
		t.Fatalf("after stream: len=%d adds=%d", inf.Len(), h.adds)
	}
	if _, ok := inf.Get("p2"); !ok {
		t.Fatal("p2 missing from cache")
	}
}

func TestInformerUpdateAndDeleteEvents(t *testing.T) {
	f := newFixture(t)
	obj := f.create(t, "p1", "k1")
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h := &countingHandler{}
	inf.AddHandler(h)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	upd := obj.Clone()
	upd.Pod.Phase = cluster.PodTerminating
	done := false
	f.c.conn.Update(upd, func(o *cluster.Object, err error) {
		if err != nil {
			t.Errorf("update: %v", err)
		}
		done = true
	})
	for !done && f.w.Kernel().Step() {
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if h.updates != 1 {
		t.Fatalf("updates = %d", h.updates)
	}
	done = false
	f.c.conn.Delete(cluster.KindPod, "p1", 0, func(err error) {
		if err != nil {
			t.Errorf("delete: %v", err)
		}
		done = true
	})
	for !done && f.w.Kernel().Step() {
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if h.deletes != 1 || inf.Len() != 0 {
		t.Fatalf("deletes = %d len = %d", h.deletes, inf.Len())
	}
}

func TestInformerLateHandlerReplay(t *testing.T) {
	f := newFixture(t)
	f.create(t, "p1", "k1")
	f.create(t, "p2", "k1")
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	h := &countingHandler{}
	inf.AddHandler(h)
	if h.adds != 2 {
		t.Fatalf("late handler replay adds = %d, want 2", h.adds)
	}
}

func TestInformerSwitchToStaleUpstreamTimeTravels(t *testing.T) {
	f := newFixture(t)
	f.create(t, "p1", "k1")
	f.w.Kernel().RunFor(50 * sim.Millisecond)

	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h := &countingHandler{}
	inf.AddHandler(h)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	// Freeze api-2, then delete p1 (api-2 never learns).
	f.w.Network().Partition("api-2", "etcd")
	done := false
	f.c.conn.Delete(cluster.KindPod, "p1", 0, func(err error) { done = true })
	for !done && f.w.Kernel().Step() {
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if inf.Len() != 0 {
		t.Fatalf("cache should be empty after delete, len=%d", inf.Len())
	}
	frontier := inf.LastRevision()

	// Switch to the stale apiserver: relist resurrects the deleted pod and
	// the frontier regresses — time travel (Figure 3b).
	f.c.conn.SwitchAPIServer("api-2")
	f.w.Kernel().RunFor(200 * sim.Millisecond)
	if inf.Len() != 1 {
		t.Fatalf("stale relist did not resurrect pod: len=%d", inf.Len())
	}
	if h.lastAdd != "p1" {
		t.Fatalf("resurrected add = %q", h.lastAdd)
	}
	if inf.LastRevision() >= frontier {
		t.Fatalf("frontier did not regress: %d -> %d", frontier, inf.LastRevision())
	}
}

func TestInformerRelistOnWindowExpiry(t *testing.T) {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	store.NewServer(w, "etcd", store.New())
	cfg := apiserver.DefaultConfig("etcd")
	cfg.WindowSize = 3
	apiserver.New(w, "api-1", cfg)
	c := &comp{}
	c.conn = NewConn(w, "comp", "api-1", 300*sim.Millisecond)
	w.Network().Register("comp", c)
	w.Kernel().RunFor(100 * sim.Millisecond)

	inf := NewInformer(c.conn, cluster.KindPod, InformerConfig{})
	inf.Run()
	w.Kernel().RunFor(100 * sim.Millisecond)
	baseRelists := inf.Relists()

	// Cut the component off while many events pass, overflowing the window.
	w.Network().Partition("comp", "api-1")
	f2 := &comp{}
	f2.conn = NewConn(w, "writer", "api-1", 300*sim.Millisecond)
	w.Network().Register("writer", f2)
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		f2.conn.Create(cluster.NewPod(name, "uid-"+name, cluster.PodSpec{}), func(*cluster.Object, error) {})
	}
	w.Kernel().RunFor(300 * sim.Millisecond)

	// Heal. The informer's watch re-establishment hits ErrTooOld → relist.
	w.Network().Heal("comp", "api-1")
	// Force a re-watch by making the informer think the stream is silent:
	// its next startWatch comes from the liveness timer, which this config
	// lacks, so trigger a relist through SwitchAPIServer-equivalent path:
	inf.startWatch(inf.epoch)
	w.Kernel().RunFor(500 * sim.Millisecond)

	if inf.Relists() <= baseRelists {
		t.Fatalf("expected relist after window expiry: %d -> %d", baseRelists, inf.Relists())
	}
	if inf.Len() != 8 {
		t.Fatalf("cache len = %d, want 8", inf.Len())
	}
}

func TestInformerLivenessRewatch(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{WatchTimeout: 300 * sim.Millisecond})
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	// Crash and restart api-1: its subscriptions are lost.
	if err := f.w.Crash("api-1"); err != nil {
		t.Fatal(err)
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if err := f.w.Restart("api-1"); err != nil {
		t.Fatal(err)
	}
	f.w.Kernel().RunFor(time1s)

	// The liveness timer re-established the watch; new events flow again.
	f.create(t, "p9", "k1")
	f.w.Kernel().RunFor(time1s)
	if _, ok := inf.Get("p9"); !ok {
		t.Fatal("informer did not recover its watch after apiserver restart")
	}
}

const time1s = sim.Second

// TestInformerRelistBackoff verifies the retry path: with the upstream
// apiserver partitioned away, the initial list fails repeatedly and is
// rescheduled with capped exponential backoff (each attempt counted in
// Relists); once the partition heals, the informer syncs and the backoff
// resets.
func TestInformerRelistBackoff(t *testing.T) {
	f := newFixture(t)
	f.create(t, "p1", "k1")
	f.w.Network().Partition("comp", "api-1")

	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	inf.Run()

	// Conn timeout is 300ms; the backoff ladder is 100, 200, 400, 800,
	// 1600, 1600... (+ up to 50% jitter), so 10s of wall time is several
	// failed attempts deep but nowhere near 10s/100ms flat retries.
	f.w.Kernel().RunFor(10 * sim.Second)
	if inf.Synced() {
		t.Fatal("informer synced through a partition")
	}
	attempts := inf.Relists()
	if attempts < 3 {
		t.Fatalf("expected several failed list attempts, got %d", attempts)
	}
	// Flat 100ms retries against a 300ms RPC timeout would burn ~25
	// attempts in 10s; the exponential ladder caps it far lower.
	if attempts > 15 {
		t.Fatalf("backoff not applied: %d attempts in 10s", attempts)
	}

	f.w.Network().Heal("comp", "api-1")
	f.w.Kernel().RunFor(5 * sim.Second)
	if !inf.Synced() || inf.Len() != 1 {
		t.Fatalf("informer did not recover after heal: synced=%v len=%d attempts=%d",
			inf.Synced(), inf.Len(), inf.Relists())
	}
	if inf.Relists() != attempts+1 && inf.Relists() != attempts {
		// At most one more attempt could have been in flight at heal time.
		t.Fatalf("attempts kept growing after heal: %d -> %d", attempts, inf.Relists())
	}

	// Determinism: the same seed reproduces the same retry count.
	g := newFixture(t)
	g.create(t, "p1", "k1")
	g.w.Network().Partition("comp", "api-1")
	inf2 := NewInformer(g.c.conn, cluster.KindPod, InformerConfig{})
	inf2.Run()
	g.w.Kernel().RunFor(10 * sim.Second)
	if inf2.Relists() != attempts {
		t.Fatalf("retry schedule not deterministic: %d vs %d", inf2.Relists(), attempts)
	}
}

// recordingHandler keeps the exact pointers the informer hands out.
type recordingHandler struct {
	adds, deletes []*cluster.Object
	updates       [][2]*cluster.Object // {old, new}
}

func (h *recordingHandler) OnAdd(o *cluster.Object) { h.adds = append(h.adds, o) }
func (h *recordingHandler) OnUpdate(o, n *cluster.Object) {
	h.updates = append(h.updates, [2]*cluster.Object{o, n})
}
func (h *recordingHandler) OnDelete(o *cluster.Object) { h.deletes = append(h.deletes, o) }

func names(objs []*cluster.Object) []string {
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		out = append(out, o.Meta.Name)
	}
	return out
}

func mustGet(t *testing.T, inf *Informer, name string) *cluster.Object {
	t.Helper()
	o, ok := inf.Get(name)
	if !ok {
		t.Fatalf("%s missing from cache", name)
	}
	return o
}

// settle runs one write callback to completion and lets its watch event
// reach the informers.
func (f *fixture) settle(t *testing.T, issue func(done func(error))) {
	t.Helper()
	finished := false
	issue(func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		finished = true
	})
	for !finished && f.w.Kernel().Step() {
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
}

// TestInformerHandsOutCachedObjects pins what handlers and readers are
// given now that nothing is cloned on the way: the cached object itself.
// OnUpdate's old object is the one that was cached before the event,
// OnDelete's is the one removed, every handler sees the same pointers,
// and a superseded object keeps its contents (holders may retain it).
func TestInformerHandsOutCachedObjects(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h1, h2 := &recordingHandler{}, &recordingHandler{}
	inf.AddHandler(h1)
	inf.AddHandler(h2)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	created := f.create(t, "p1", "k1")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	v1 := mustGet(t, inf, "p1")
	if len(h1.adds) != 1 || h1.adds[0] != v1 || len(h2.adds) != 1 || h2.adds[0] != v1 {
		t.Fatalf("OnAdd got %v / %v, cache holds %p", h1.adds, h2.adds, v1)
	}
	if again := mustGet(t, inf, "p1"); again != v1 || inf.ListCached()[0] != v1 {
		t.Fatal("Get/ListCached returned a copy, not the cached object")
	}

	upd := created.Clone()
	upd.Pod.Phase = cluster.PodTerminating
	f.settle(t, func(done func(error)) {
		f.c.conn.Update(upd, func(_ *cluster.Object, err error) { done(err) })
	})
	v2 := mustGet(t, inf, "p1")
	if v2 == v1 || v2.Pod.Phase != cluster.PodTerminating {
		t.Fatalf("cache not advanced: %p -> %p (%+v)", v1, v2, v2.Pod)
	}
	if len(h1.updates) != 1 || h1.updates[0] != [2]*cluster.Object{v1, v2} || h2.updates[0] != h1.updates[0] {
		t.Fatalf("OnUpdate got %v, want {previously cached %p, now cached %p}", h1.updates, v1, v2)
	}
	if v1.Pod.Phase != "" || v1.Meta.ResourceVersion >= v2.Meta.ResourceVersion {
		t.Fatalf("superseded object changed under its holders: %+v rv=%d", v1.Pod, v1.Meta.ResourceVersion)
	}

	f.settle(t, func(done func(error)) { f.c.conn.Delete(cluster.KindPod, "p1", 0, done) })
	if len(h1.deletes) != 1 || h1.deletes[0] != v2 || h2.deletes[0] != v2 {
		t.Fatalf("OnDelete got %v, want the removed cached object %p", h1.deletes, v2)
	}
	if v2.Meta.ResourceVersion >= inf.LastRevision() {
		t.Fatalf("OnDelete's object was restamped to the deletion revision: rv=%d frontier=%d",
			v2.Meta.ResourceVersion, inf.LastRevision())
	}
}

// TestInformerDuplicatePushDeduped: a push delivered twice (network
// duplication, overlapping backlog replay) is applied once — one
// notification, and the cache keeps the first delivery's object.
func TestInformerDuplicatePushDeduped(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h := &recordingHandler{}
	inf.AddHandler(h)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	f.create(t, "p1", "k1")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	cached := mustGet(t, inf, "p1")

	dup := cached.Clone()
	inf.onPush([]apiserver.WatchEvent{{Type: apiserver.Added, Object: dup, Revision: dup.Meta.ResourceVersion}})
	if len(h.adds) != 1 || len(h.updates) != 0 {
		t.Fatalf("duplicate push notified handlers: adds=%d updates=%d", len(h.adds), len(h.updates))
	}
	if mustGet(t, inf, "p1") != cached {
		t.Fatal("duplicate push replaced the cached object")
	}
}

// TestInformerStaleRelistHandsOutStaleObjects: a relist against a staler
// upstream moves the cache backwards, and what handlers are given is that
// upstream's object — the resurrected pod at its old revision, which is
// then the cached one.
func TestInformerStaleRelistHandsOutStaleObjects(t *testing.T) {
	f := newFixture(t)
	created := f.create(t, "p1", "k1")
	f.create(t, "p2", "k1")
	f.w.Kernel().RunFor(50 * sim.Millisecond)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	h := &recordingHandler{}
	inf.AddHandler(h)
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	p2 := mustGet(t, inf, "p2")

	f.w.Network().Partition("api-2", "etcd")
	upd := created.Clone()
	upd.Pod.Phase = cluster.PodTerminating
	f.settle(t, func(done func(error)) {
		f.c.conn.Update(upd, func(_ *cluster.Object, err error) { done(err) })
	})
	marked := mustGet(t, inf, "p1")
	f.settle(t, func(done func(error)) { f.c.conn.Delete(cluster.KindPod, "p2", 0, done) })
	frontier := inf.LastRevision()
	*h = recordingHandler{}

	f.c.conn.SwitchAPIServer("api-2")
	f.w.Kernel().RunFor(200 * sim.Millisecond)
	if inf.LastRevision() >= frontier {
		t.Fatalf("frontier did not regress: %d -> %d", frontier, inf.LastRevision())
	}
	stale := mustGet(t, inf, "p1")
	if len(h.updates) != 1 || h.updates[0] != [2]*cluster.Object{marked, stale} {
		t.Fatalf("relist OnUpdate got %v, want {%p, %p}", h.updates, marked, stale)
	}
	if stale.Meta.ResourceVersion != created.Meta.ResourceVersion || stale.Pod.Phase != "" {
		t.Fatalf("stale relist installed %s phase %q, want the pre-update revision %d",
			stale, stale.Pod.Phase, created.Meta.ResourceVersion)
	}
	back := mustGet(t, inf, "p2")
	if len(h.adds) != 1 || h.adds[0] != back {
		t.Fatalf("resurrected add got %v, cache holds %p", h.adds, back)
	}
	if back.Meta.ResourceVersion != p2.Meta.ResourceVersion || back.Meta.ResourceVersion >= frontier ||
		back.Meta.UID != p2.Meta.UID || back.Pod.Phase != p2.Pod.Phase {
		t.Fatalf("resurrected %s uid %s phase %q, deleted incarnation was %s uid %s phase %q (frontier %d)",
			back, back.Meta.UID, back.Pod.Phase, p2, p2.Meta.UID, p2.Pod.Phase, frontier)
	}
}

// TestInformerNameOrderFollowsMembership: the name order is cached until
// membership changes. Add → delete → add leaves the same count with
// different names, which an order cache keyed on length would miss; an
// update changes no membership, so it keeps the slice and replaces the
// updated object's slot.
func TestInformerNameOrderFollowsMembership(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	inf.Run()
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	a := f.create(t, "a", "k1")
	f.create(t, "c", "k1")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	order := inf.ListCached()
	if got := names(order); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("ListCached = %v", got)
	}
	c := order[1]

	upd := a.Clone()
	upd.Pod.Phase = cluster.PodRunning
	f.settle(t, func(done func(error)) {
		f.c.conn.Update(upd, func(_ *cluster.Object, err error) { done(err) })
	})
	got := inf.ListCached()
	if &got[0] != &order[0] {
		t.Fatal("an update rebuilt the order")
	}
	if got[0] != mustGet(t, inf, "a") || got[0].Pod.Phase != cluster.PodRunning || got[1] != c {
		t.Fatalf("update: slots hold %v phase %q, want the updated a and the untouched c", names(got), got[0].Pod.Phase)
	}

	f.settle(t, func(done func(error)) { f.c.conn.Delete(cluster.KindPod, "c", 0, done) })
	f.create(t, "b", "k1")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if got := names(inf.ListCached()); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("after add, delete, add: ListCached = %v, want [a b]", got)
	}
	h := &recordingHandler{}
	inf.AddHandler(h)
	if got := names(h.adds); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("late handler replay order = %v, want [a b]", got)
	}
	for i, o := range inf.ListCached() {
		if h.adds[i] != o {
			t.Fatalf("replay handed out %p for %s, cache holds %p", h.adds[i], o.Meta.Name, o)
		}
	}
}

// TestInformerReadsDoNotCopy guards the kubelet sync loop's cost: reading
// the cache allocates nothing — ListCached and ListOnNode hand out the
// informer's own slices — and the name order is sorted once per
// membership change, not once per read.
func TestInformerReadsDoNotCopy(t *testing.T) {
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	inf.Run()
	for i := 0; i < 100; i++ {
		f.create(t, fmt.Sprintf("p%03d", i), fmt.Sprintf("k%d", i%4))
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if !inf.Synced() || inf.Len() != 100 {
		t.Fatalf("synced=%v len=%d", inf.Synced(), inf.Len())
	}
	order := &inf.ListCached()[0]
	if n := testing.AllocsPerRun(20, func() { inf.ListCached() }); n != 0 {
		t.Fatalf("ListCached on a 100-object cache: %.0f allocs, want 0", n)
	}
	if &inf.ListCached()[0] != order {
		t.Fatal("ListCached re-sorted the names with no membership change")
	}
	if len(inf.ListOnNode("k1")) != 25 {
		t.Fatalf("ListOnNode(k1) holds %d pods, want 25", len(inf.ListOnNode("k1")))
	}
	if n := testing.AllocsPerRun(20, func() { inf.ListOnNode("k1") }); n != 0 {
		t.Fatalf("ListOnNode: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { inf.Get("p050") }); n != 0 {
		t.Fatalf("Get: %.0f allocs, want 0", n)
	}
}

// TestInformerNodeIndexMatchesFilter is the pod-by-node index against its
// definition. A random program of adds, rebinds ("" → node → another
// node), deletes and stale relists runs on one informer, which is captured
// and restored onto a fresh world partway through. After every step the
// cache must equal a plain map model, and ListOnNode(n) must be ListCached
// filtered by n, pointer for pointer, for every node.
func TestInformerNodeIndexMatchesFilter(t *testing.T) {
	nodes := []string{"", "k1", "k2", "k3", "k4"}
	f := newFixture(t)
	inf := NewInformer(f.c.conn, cluster.KindPod, InformerConfig{})
	rng := rand.New(rand.NewSource(7))
	model := map[string]*cluster.Object{}
	rev := int64(100)
	pod := func(name string) *cluster.Object {
		rev++
		p := cluster.NewPod(name, "uid-"+name, cluster.PodSpec{NodeName: nodes[rng.Intn(len(nodes))]})
		p.Meta.ResourceVersion = rev
		return p
	}
	check := func(step int, op string) {
		t.Helper()
		want := make([]*cluster.Object, 0, len(model))
		for _, o := range model {
			want = append(want, o)
		}
		slices.SortFunc(want, byName)
		all := inf.ListCached()
		if !slices.Equal(all, want) {
			t.Fatalf("step %d (%s): ListCached = %v, model %v", step, op, names(all), names(want))
		}
		for _, n := range nodes[1:] {
			var on []*cluster.Object
			for _, o := range all {
				if o.Pod.NodeName == n {
					on = append(on, o)
				}
			}
			if got := inf.ListOnNode(n); !slices.Equal(got, on) {
				t.Fatalf("step %d (%s): ListOnNode(%s) = %v, filter gives %v", step, op, n, names(got), names(on))
			}
		}
		if got := inf.ListOnNode(""); len(got) != 0 {
			t.Fatalf("step %d (%s): ListOnNode(\"\") = %v, want no pods", step, op, names(got))
		}
	}
	for step := 0; step < 3000; step++ {
		if step == 1500 {
			w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
			inf = RestoreConn(w, f.c.conn.Snapshot()).InformerFor(cluster.KindPod)
			if inf.byNode != nil || inf.order != nil {
				t.Fatal("a restored informer carries its caches")
			}
		}
		name := fmt.Sprintf("p%02d", rng.Intn(24))
		var op string
		switch r := rng.Intn(20); {
		case r < 12:
			op = "put " + name
			p := pod(name)
			inf.onPush([]apiserver.WatchEvent{{Type: apiserver.Modified, Object: p, Revision: rev}})
			model[name] = p
		case r < 19:
			op = "delete " + name
			rev++
			tomb := &cluster.Object{Meta: cluster.Meta{Kind: cluster.KindPod, Name: name, ResourceVersion: rev}}
			inf.onPush([]apiserver.WatchEvent{{Type: apiserver.Deleted, Object: tomb, Revision: rev}})
			delete(model, name)
		default:
			// A stale upstream's list: some names kept as cached, some
			// at another binding, some gone, some back.
			op = "relist"
			var objs []*cluster.Object
			next := map[string]*cluster.Object{}
			for i := 0; i < 24; i++ {
				n := fmt.Sprintf("p%02d", i)
				switch cur, ok := model[n]; {
				case rng.Intn(3) == 0:
				case ok && rng.Intn(2) == 0:
					next[n] = cur
				default:
					next[n] = pod(n)
				}
				if o, ok := next[n]; ok {
					objs = append(objs, o)
				}
			}
			rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
			inf.replace(objs, rev-int64(rng.Intn(50)))
			model = next
		}
		// Read sometimes only, so that changes meet a built, a stale and
		// an unbuilt cache.
		if rng.Intn(4) == 0 || step == 1500 {
			check(step, op)
		}
	}
	check(3000, "end")
}
