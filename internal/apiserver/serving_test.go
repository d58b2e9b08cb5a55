package apiserver

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/store"
)

// servingHarness builds one apiserver with a configurable Config plus a
// client, mirroring newHarness but letting tests pin the legacy serving
// paths.
func servingHarness(t testing.TB, mutate func(*Config)) *harness {
	t.Helper()
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	h := &harness{w: w, st: store.NewServer(w, "etcd", store.New())}
	cfg := DefaultConfig("etcd")
	if mutate != nil {
		mutate(&cfg)
	}
	h.apis = append(h.apis, New(w, "api-1", cfg))
	h.cl = &testClient{id: "client", w: w}
	h.cl.rpc = sim.NewRPCClient(w.Network(), "client", 300*sim.Millisecond)
	w.Network().Register("client", h.cl)
	w.Kernel().RunFor(100 * sim.Millisecond)
	return h
}

func mkNode(name string) *cluster.Object {
	return cluster.NewNode(name, "uid-"+name, cluster.NodeSpec{Ready: true, Capacity: 4})
}

// TestRelayVisitsOnlyInterestedSubs is the regression test for the
// serving-path scaling bug: relaying one committed event must visit only
// the subscribers of that event's kind, not every subscriber on the
// apiserver. Before the per-kind index, a pod event at N nodes scanned
// the N node-kubelet subscriptions too — O(all subs) per event.
func TestRelayVisitsOnlyInterestedSubs(t *testing.T) {
	const nodeSubs = 40
	h := servingHarness(t, nil)
	api := h.apis[0]
	// One pod subscriber and many node subscribers.
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodeSubs; i++ {
		if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := api.Stats()
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	after := api.Stats()
	events := after.RelayEvents - before.RelayEvents
	visits := after.RelaySubVisits - before.RelaySubVisits
	if events == 0 {
		t.Fatal("pod create relayed no events; the assertion is vacuous")
	}
	// Every relayed pod event must visit exactly the one pod subscriber.
	if visits != events {
		t.Fatalf("relay visited %d subs over %d pod events; want 1 visit/event (index broken: node subs scanned)", visits, events)
	}
	if after.RelaySends-before.RelaySends != events {
		t.Fatalf("sends=%d events=%d: pod sub missed events", after.RelaySends-before.RelaySends, events)
	}
}

// TestUnindexedRelayScansAllSubs pins the legacy behaviour the index
// replaced (and E12 measures against): under UnindexedServing every
// event visits every subscriber.
func TestUnindexedRelayScansAllSubs(t *testing.T) {
	const nodeSubs = 40
	h := servingHarness(t, func(c *Config) { c.UnindexedServing = true })
	api := h.apis[0]
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodeSubs; i++ {
		if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := api.Stats()
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	after := api.Stats()
	events := after.RelayEvents - before.RelayEvents
	visits := after.RelaySubVisits - before.RelaySubVisits
	if events == 0 {
		t.Fatal("no events relayed")
	}
	if visits != events*(nodeSubs+1) {
		t.Fatalf("unindexed relay visited %d subs over %d events; want %d (all subs per event)",
			visits, events, events*(nodeSubs+1))
	}
}

// TestIndexedServingMatchesUnindexed drives an identical mixed workload
// through an indexed and an unindexed apiserver and requires identical
// client-visible bytes: every list result and every watch push. The
// indexed path is an acceleration, never a semantic change.
func TestIndexedServingMatchesUnindexed(t *testing.T) {
	run := func(unindexed bool) (pushes []*WatchPushMsg, lists [][]*cluster.Object) {
		h := servingHarness(t, func(c *Config) { c.UnindexedServing = unindexed })
		if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkNode(fmt.Sprintf("n%02d", i))}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod(fmt.Sprintf("p%02d", i), fmt.Sprintf("n%02d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		// Mutate and delete to exercise index maintenance + memo
		// invalidation.
		g, err := h.cl.call("api-1", MethodGet, &GetRequest{Kind: cluster.KindPod, Name: "p03"})
		if err != nil {
			t.Fatal(err)
		}
		upd := g.(*GetResponse).Object.Clone()
		upd.Pod.Phase = cluster.PodRunning
		if _, err := h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: upd}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p01"}); err != nil {
			t.Fatal(err)
		}
		h.w.Kernel().RunFor(100 * sim.Millisecond)
		for _, kind := range []cluster.Kind{cluster.KindPod, cluster.KindNode} {
			l, err := h.cl.call("api-1", MethodList, &ListRequest{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, l.(*ListResponse).Objects)
		}
		return h.cl.pushes, lists
	}
	idxPush, idxLists := run(false)
	rawPush, rawLists := run(true)
	if !reflect.DeepEqual(idxLists, rawLists) {
		t.Fatalf("list results diverge between indexed and unindexed serving:\nindexed: %+v\nlegacy: %+v", idxLists, rawLists)
	}
	if !reflect.DeepEqual(idxPush, rawPush) {
		t.Fatalf("watch pushes diverge between indexed and unindexed serving:\nindexed: %+v\nlegacy: %+v", idxPush, rawPush)
	}
}

// TestDecodeMemoHitsOnRepeatedLists: the ModRevision-keyed decode memo
// must serve repeated lists of unchanged objects from cache and
// invalidate per-object on writes.
func TestDecodeMemoHitsOnRepeatedLists(t *testing.T) {
	h := servingHarness(t, nil)
	api := h.apis[0]
	for i := 0; i < 5; i++ {
		if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod(fmt.Sprintf("p%d", i), "k1")}); err != nil {
			t.Fatal(err)
		}
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if _, err := h.cl.call("api-1", MethodList, &ListRequest{Kind: cluster.KindPod}); err != nil {
		t.Fatal(err)
	}
	warm := api.Stats()
	if _, err := h.cl.call("api-1", MethodList, &ListRequest{Kind: cluster.KindPod}); err != nil {
		t.Fatal(err)
	}
	after := api.Stats()
	if hits := after.DecodeHits - warm.DecodeHits; hits != 5 {
		t.Fatalf("second list scored %d memo hits, want 5", hits)
	}
	if misses := after.DecodeMisses - warm.DecodeMisses; misses != 0 {
		t.Fatalf("second list re-decoded %d unchanged objects", misses)
	}
	if scanned := after.ListKeysScanned - warm.ListKeysScanned; scanned != 5 {
		t.Fatalf("indexed list scanned %d keys, want exactly the 5 pod keys", scanned)
	}
}

// TestCommittedRevisionDecodedOncePerWorld: the apiservers of one world
// share one object of a committed revision — both memos and both watch
// pushes carry the same pointer, and the read-path counters do not see it.
// A revision written through one of them is not decoded at all: the object
// is the writer's, on a copy stamped with the revision, and the write reply
// carries it too. A world restored from a capture starts with an empty
// memo: its apiserver decodes on first use, to an equal object.
func TestCommittedRevisionDecodedOncePerWorld(t *testing.T) {
	h := newHarness(t, 2)
	decodes := NewDecodes()
	for i, api := range h.apis {
		api.ShareDecodes(decodes)
		if _, err := h.cl.call(api.ID(), MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	before := [2]ServeStats{h.apis[0].Stats(), h.apis[1].Stats()}
	written := mkPod("p1", "k1")
	resp, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: written})
	if err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)

	var pushed [2]*cluster.Object
	for _, p := range h.cl.pushes {
		pushed[p.SubID-1] = p.Events[0].Object
	}
	obj := pushed[0]
	if obj == nil || pushed[1] != obj {
		t.Fatalf("watch pushes carry %p and %p, want one object", pushed[0], pushed[1])
	}
	if reply := resp.(*WriteResponse).Object; reply != obj {
		t.Fatalf("the write reply carries %p, want the pushed %p", reply, obj)
	}
	stamped := *written
	stamped.Meta.ResourceVersion = obj.Meta.ResourceVersion
	if obj == written || obj.Pod != written.Pod || !reflect.DeepEqual(*obj, stamped) {
		t.Fatalf("the revision's object is %p %+v, want a copy of the written %p stamped with its revision", obj, *obj, written)
	}
	for i, api := range h.apis {
		if m := api.Memoized(); len(m) != 1 || m[0] != obj {
			t.Fatalf("%s memoizes %v, want the pushed %p", api.ID(), m, obj)
		}
		if st := api.Stats(); st.DecodeHits != before[i].DecodeHits || st.DecodeMisses != before[i].DecodeMisses || st.ApplyDecodes != before[i].ApplyDecodes {
			t.Fatalf("%s decoded the written revision, or counted the watch path as reads: %+v -> %+v", api.ID(), before[i], st)
		}
	}

	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	restored := Restore(w, h.apis[1].Snapshot())
	restored.ShareDecodes(NewDecodes())
	got, err := restored.getCached(cluster.KindPod, "p1")
	if err != nil || !got.Found {
		t.Fatalf("restored get: %+v, %v", got, err)
	}
	if got.Object == obj || !reflect.DeepEqual(got.Object, obj) {
		t.Fatalf("restored apiserver served %p %+v, want a fresh decode equal to %+v", got.Object, got.Object, obj)
	}
	if st := restored.Stats(); st.DecodeMisses != 1 || st.DecodeHits != 0 {
		t.Fatalf("restored first read: %+v, want one decode", st)
	}
}

// TestInexactWritesAreDecoded: an object that encodes to its committed
// bytes but would not come back from them — an empty label set, an empty
// ReadyMembers that is not nil, a string the codec has to escape — is not
// the revision's object. The revision is decoded, once for two apiservers
// sharing a memo, and the memos and the write reply carry the decode, which
// is not the object that was written. An apiserver with no memo to find
// the revision in when the reply goes out decodes the reply itself.
func TestInexactWritesAreDecoded(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) { inexactWritesAreDecoded(t, shared) })
	}
}

func inexactWritesAreDecoded(t *testing.T, shared bool) {
	h := newHarness(t, 2)
	if shared {
		decodes := NewDecodes()
		for _, api := range h.apis {
			api.ShareDecodes(decodes)
		}
	}
	perRevision := 2 // each apiserver decodes for itself
	if shared {
		perRevision = 1
	}
	labelled := cluster.NewNode("n1", "uid-n1", cluster.NodeSpec{Ready: true, Capacity: 4})
	labelled.Meta.Labels = cluster.Labels{}
	for _, written := range []*cluster.Object{
		labelled,
		cluster.NewCassandra("c1", "uid-c1", cluster.CassandraSpec{Replicas: 3, ReadyMembers: []string{}}),
		cluster.NewPod("p1", "uid-p1", cluster.PodSpec{Image: "v1\xff"}), // json.Marshal writes U+FFFD
	} {
		decodesBefore := h.apis[0].Stats().ApplyDecodes + h.apis[1].Stats().ApplyDecodes
		resp, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: written})
		if err != nil {
			t.Fatal(err)
		}
		h.w.Kernel().RunFor(50 * sim.Millisecond)
		kv, _, ok := h.st.Store().Get(cluster.Key(written.Meta.Kind, written.Meta.Name))
		if !ok {
			t.Fatalf("%s was not committed", written)
		}
		want, err := cluster.Decode(kv.Value, kv.ModRevision)
		if err != nil {
			t.Fatal(err)
		}
		stamped := *written
		stamped.Meta.ResourceVersion = kv.ModRevision
		if reflect.DeepEqual(*want, stamped) {
			t.Fatalf("%s comes back from %s unchanged; the case proves nothing", written, kv.Value)
		}
		if reply := resp.(*WriteResponse).Object; !reflect.DeepEqual(reply, want) {
			t.Errorf("write reply for %s is %+v, want the decode %+v", written, *reply, *want)
		}
		for _, api := range h.apis {
			got, err := api.getCached(written.Meta.Kind, written.Meta.Name)
			if err != nil || !got.Found || !reflect.DeepEqual(got.Object, want) {
				t.Errorf("%s serves %s as %+v, want the decode %+v", api.ID(), written, got.Object, *want)
			}
		}
		if n := h.apis[0].Stats().ApplyDecodes + h.apis[1].Stats().ApplyDecodes - decodesBefore; n != uint64(perRevision) {
			t.Errorf("%s was decoded %d times by the apiservers, want %d", written, n, perRevision)
		}
	}
}

// TestRelayReResolvesLinks: a subscriber is pushed to on the route the
// relay index resolved, and what is configured on the link later still
// applies; an apiserver restored into another world relays on that world's
// link, not on the record it was captured with.
func TestRelayReResolvesLinks(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(sim.Second) // past the call's timeout: the world can be captured
	n := 0
	// push commits one pod to st's store and returns how long its relay
	// took to reach client c in world w: one hop to the apiserver, one on.
	push := func(w *sim.World, st *store.Server, c *testClient) sim.Duration {
		n++
		pod := mkPod(fmt.Sprintf("p%d", n), "k1")
		start, seen := w.Kernel().Now(), len(c.pushes)
		st.Store().Put(cluster.Key(cluster.KindPod, pod.Meta.Name), cluster.MustEncode(pod))
		for len(c.pushes) == seen {
			if !w.Kernel().Step() {
				t.Fatal("the relay never arrived")
			}
		}
		return w.Kernel().Now().Sub(start)
	}
	steps := []struct {
		name string
		run  func() sim.Duration
		want sim.Duration
	}{
		{"registered", func() sim.Duration { return push(h.w, h.st, h.cl) }, 2 * sim.Millisecond},
		{"link delayed after the watch", func() sim.Duration {
			h.w.Network().SetLinkDelay("api-1", "client", 4*sim.Millisecond)
			return push(h.w, h.st, h.cl)
		}, 6 * sim.Millisecond},
		{"restored into another world", func() sim.Duration {
			h.w.Kernel().RunFor(100 * sim.Millisecond)
			ks, ok := h.w.Kernel().CaptureSnapshot()
			stSnap, ok2 := h.st.Snapshot()
			if !ok || !ok2 {
				t.Fatal("the world could not be captured")
			}
			w2 := sim.NewRestoredWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond}, ks, h.w.Network().Snapshot())
			cl2 := &testClient{id: "client", w: w2, rpc: sim.NewRPCClient(w2.Network(), "client", 300*sim.Millisecond)}
			w2.Network().Register("client", cl2)
			st2 := store.RestoreServer(w2, stSnap)
			Restore(w2, h.apis[0].Snapshot())
			w2.Network().SetLinkDelay("api-1", "client", 2*sim.Millisecond)
			before := len(h.cl.pushes)
			d := push(w2, st2, cl2)
			if h.w.Kernel().Run(h.w.Kernel().Now().Add(sim.Second)); len(h.cl.pushes) != before {
				t.Error("the restored apiserver relayed on the captured world's link")
			}
			return d
		}, 4 * sim.Millisecond},
	}
	for _, s := range steps {
		if got := s.run(); got != s.want {
			t.Errorf("%s: the relay took %v, want %v", s.name, got, s.want)
		}
	}
}

// TestWindowTrimAmortized: trimming the watch window must not copy or
// allocate per appended event. The log's head advances per event (free),
// whole chunks are released as it passes them, and a compaction is
// counted once per WindowSize trims.
func TestWindowTrimAmortized(t *testing.T) {
	h := servingHarness(t, func(c *Config) { c.WindowSize = 64 })
	api := h.apis[0]
	for i := 0; i < 40; i++ {
		if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod(fmt.Sprintf("p%03d", i), "k1")}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: fmt.Sprintf("p%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.w.Kernel().RunFor(100 * sim.Millisecond)
	st := api.Stats()
	if st.WindowTrims == 0 {
		t.Fatal("window never trimmed; assertions below are vacuous")
	}
	if st.WindowCompacts >= st.WindowTrims {
		t.Fatalf("compacted on (nearly) every trim: %d compacts for %d trims — trimming is O(n) again", st.WindowCompacts, st.WindowTrims)
	}
	// The compaction cadence is one per WindowSize trims.
	if want := st.WindowTrims / 64; st.WindowCompacts > want+1 {
		t.Fatalf("%d compacts for %d trims; want about %d (one per WindowSize)", st.WindowCompacts, st.WindowTrims, want)
	}
}

// BenchmarkRelayPerEvent measures per-event relay cost while the number
// of *uninterested* subscribers grows. With the per-kind index the cost
// is O(interested subs) — flat as node subs scale; the unindexed variant
// degrades linearly. (The deterministic counterpart of this claim is
// asserted by TestRelayVisitsOnlyInterestedSubs; this benchmark is the
// wall-clock evidence for E12.)
func BenchmarkRelayPerEvent(b *testing.B) {
	for _, unindexed := range []bool{false, true} {
		mode := "indexed"
		if unindexed {
			mode = "unindexed"
		}
		for _, subs := range []int{10, 100, 500} {
			b.Run(fmt.Sprintf("%s/nodeSubs=%d", mode, subs), func(b *testing.B) {
				h := servingHarness(b, func(c *Config) { c.UnindexedServing = unindexed })
				api := h.apis[0]
				for i := 0; i < subs; i++ {
					if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: uint64(100 + i)}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
					b.Fatal(err)
				}
				ev := WatchEvent{Type: Added, Object: mkPod("bench", "k1"), Revision: 1 << 40}
				key := "/registry/pods/bench"
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.Revision++ // keep lastSent advancing so relayTo runs
					api.relay(ev, key)
				}
			})
		}
	}
}

// BenchmarkWindowTrim measures steady-state event application cost with
// a full window. Amortized O(1) trimming keeps allocs/op near constant
// regardless of window size; the pre-fix slide re-allocated the entire
// window every event.
func BenchmarkWindowTrim(b *testing.B) {
	for _, winSize := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("window=%d", winSize), func(b *testing.B) {
			h := servingHarness(b, func(c *Config) { c.WindowSize = winSize })
			api := h.apis[0]
			obj := mkPod("bench", "k1")
			enc, err := cluster.Encode(obj)
			if err != nil {
				b.Fatal(err)
			}
			rev := int64(1 << 40)
			apply := func() {
				rev++
				api.applyOne(history.Event{
					Revision: rev,
					Type:     history.Put,
					Key:      cluster.Key(cluster.KindPod, "bench"),
					Value:    enc,
					PrevRev:  rev - 1,
				})
			}
			for i := 0; i < winSize+8; i++ {
				apply() // fill the window past its size
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply()
			}
		})
	}
}

// TestApplySeedsDecodeMemo: the decode applyOne performs for the relay is
// the one cached reads are answered from — an Update followed by a cached
// Get of the same key (the kubelet heartbeat's pattern) must not decode
// again, and the object read is the very one the watchers were pushed.
func TestApplySeedsDecodeMemo(t *testing.T) {
	h := servingHarness(t, nil)
	api := h.apis[0]
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkNode("n1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	before := api.Stats()
	upd := mkNode("n1")
	upd.Node.Capacity = 9
	if _, err := h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: upd}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	body, err := h.cl.call("api-1", MethodGet, &GetRequest{Kind: cluster.KindNode, Name: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	got := body.(*GetResponse).Object
	if got == nil || got.Node.Capacity != 9 {
		t.Fatalf("cached get after update returned %+v", got)
	}
	after := api.Stats()
	if after.DecodeMisses != before.DecodeMisses {
		t.Fatalf("update then cached get decoded %d more times; applyOne's decode must seed the memo",
			after.DecodeMisses-before.DecodeMisses)
	}
	if after.DecodeHits != before.DecodeHits+1 {
		t.Fatalf("cached get scored %d memo hits, want 1", after.DecodeHits-before.DecodeHits)
	}
	last := h.cl.pushes[len(h.cl.pushes)-1].Events
	if pushed := last[len(last)-1].Object; pushed != got {
		t.Fatalf("watch push carried %p, cached get %p: one object per (key, revision)", pushed, got)
	}
}

// TestRelaySharesOneObjectAndTombstonesLastState: every subscriber of a
// kind is pushed the same object pointer, and a delete is relayed as the
// last known state stamped with the deletion revision — without touching
// the (shared, immutable) object of the previous revision.
func TestRelaySharesOneObjectAndTombstonesLastState(t *testing.T) {
	h := servingHarness(t, nil)
	for sub := uint64(1); sub <= 2; sub++ {
		if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod("p1", "k1")}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if len(h.cl.pushes) != 2 {
		t.Fatalf("%d pushes after create, want one per subscriber", len(h.cl.pushes))
	}
	added := h.cl.pushes[0].Events[0]
	if other := h.cl.pushes[1].Events[0]; other.Object != added.Object {
		t.Fatalf("subscribers were pushed distinct objects %p and %p", added.Object, other.Object)
	}
	if _, err := h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: cluster.KindPod, Name: "p1"}); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	deleted := h.cl.pushes[len(h.cl.pushes)-1].Events[0]
	if deleted.Type != Deleted || deleted.Object.Meta.ResourceVersion != deleted.Revision {
		t.Fatalf("tombstone %+v rv=%d", deleted, deleted.Object.Meta.ResourceVersion)
	}
	if deleted.Object.Pod == nil || deleted.Object.Pod.NodeName != "k1" || deleted.Object.Meta.UID != "uid-p1" {
		t.Fatalf("tombstone lost the last known state: %+v", deleted.Object)
	}
	if added.Object.Meta.ResourceVersion != added.Revision {
		t.Fatalf("building the tombstone restamped the shared object of revision %d to %d",
			added.Revision, added.Object.Meta.ResourceVersion)
	}
}

// TestRewatchKeepsOrderCachesAndReplaysBacklog: an informer on a quiet
// stream re-issues its watch under the same subscription key every
// WatchTimeout. That must not throw away the sorted-subscription caches
// (the next relay would re-sort every key), must still reset the
// subscription's high-water mark, and must replay exactly the window
// events after StartRev of the requested kind. A snapshot taken while the
// relay index holds the marks carries them.
func TestRewatchKeepsOrderCachesAndReplaysBacklog(t *testing.T) {
	h := servingHarness(t, nil)
	api := h.apis[0]
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: 2}); err != nil {
		t.Fatal(err)
	}
	var revs []int64
	var nodeRev int64
	for i := 0; i < 4; i++ {
		body, err := h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkPod(fmt.Sprintf("p%d", i), "k1")})
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, body.(*WriteResponse).Object.Meta.ResourceVersion)
		body, err = h.cl.call("api-1", MethodCreate, &CreateRequest{Object: mkNode(fmt.Sprintf("n%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		nodeRev = body.(*WriteResponse).Object.Meta.ResourceVersion
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if api.subsOrder == nil || api.subsByKind == nil {
		t.Fatal("relay did not build the order caches; the assertion below is vacuous")
	}
	order := &api.subsOrder[0]
	// The relay keeps the marks in its index; a snapshot carries them.
	if sent := api.Snapshot().State.subs["client/2"].lastSent; sent != nodeRev {
		t.Fatalf("a snapshot captured the node subscription's lastSent at %d, want %d", sent, nodeRev)
	}

	h.cl.pushes = nil
	before := api.Stats()
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindPod, SubID: 1, StartRev: revs[1]}); err != nil {
		t.Fatal(err)
	}
	if api.subsOrder == nil || &api.subsOrder[0] != order || api.subsByKind == nil {
		t.Fatal("re-registering a live subscription key with the same kind invalidated the order caches")
	}
	if after := api.Stats(); after != before {
		t.Fatalf("re-watch moved serving counters: %+v -> %+v", before, after)
	}
	if len(h.cl.pushes) != 1 {
		t.Fatalf("%d backlog pushes, want 1", len(h.cl.pushes))
	}
	var got []int64
	for _, ev := range h.cl.pushes[0].Events {
		if ev.Object.Meta.Kind != cluster.KindPod {
			t.Fatalf("pod backlog carried a %s event", ev.Object.Meta.Kind)
		}
		got = append(got, ev.Revision)
	}
	if !reflect.DeepEqual(got, revs[2:]) {
		t.Fatalf("backlog after revision %d replayed %v, want %v", revs[1], got, revs[2:])
	}
	if sent := api.subs["client/1"].lastSent; sent != revs[3] {
		t.Fatalf("re-watch left lastSent at %d, want %d", sent, revs[3])
	}

	// The same key asking for another kind is a different subscription
	// for the per-kind index: that one must be rebuilt.
	if _, err := h.cl.call("api-1", MethodWatch, &WatchRequest{Kind: cluster.KindNode, SubID: 1, StartRev: api.CachedRevision()}); err != nil {
		t.Fatal(err)
	}
	if api.subsByKind != nil {
		t.Fatal("re-registering a key under another kind kept the stale per-kind index")
	}
}

// TestAPIWriteAllocations pins what one heartbeat-shaped write costs the
// API path: a cached Get of a node, then an Update of it with a fresh label
// set and the spec shared, through an apiserver and the store, until the
// reply is back — the store's commit and watch push, the apiserver's apply
// and relay-free cache update included. The client's own share (the
// requests, the lean copy, its label, the callbacks) is in the count too.
func TestAPIWriteAllocations(t *testing.T) {
	const hour = 3600 * sim.Second
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	store.NewServer(w, "etcd", store.New())
	cfg := DefaultConfig("etcd")
	cfg.ResyncInterval = hour
	api := New(w, "api-1", cfg)
	api.ShareDecodes(NewDecodes())
	cl := &testClient{id: "client", w: w, rpc: sim.NewRPCClient(w.Network(), "client", 300*sim.Millisecond)}
	w.Network().Register("client", cl)
	w.Kernel().RunFor(100 * sim.Millisecond)
	node := cluster.NewNode("n1", "uid-n1", cluster.NodeSpec{Ready: true, Capacity: 16})
	node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: "0"}}
	if _, err := cl.call("api-1", MethodCreate, &CreateRequest{Object: node}); err != nil {
		t.Fatal(err)
	}
	w.Kernel().RunFor(sim.Second) // past the create's timeout
	get := &GetRequest{Kind: cluster.KindNode, Name: "n1"}
	var failed error
	done := false
	written := func(_ any, err error) { failed, done = err, true }
	got := func(body any, err error) {
		if err != nil {
			failed, done = err, true
			return
		}
		cur := body.(*GetResponse).Object
		beat := *cur
		beat.Meta.Labels = cur.Meta.Labels.With("heartbeat", strconv.FormatInt(int64(w.Now()), 10))
		cl.rpc.Call("api-1", MethodUpdate, &UpdateRequest{Object: &beat}, written)
	}
	roundTrip := func() {
		done = false
		cl.rpc.Call("api-1", MethodGet, get, got)
		for !done && w.Kernel().Step() {
		}
		if failed != nil || !done {
			t.Fatalf("heartbeat: done = %v, err = %v", done, failed)
		}
	}
	for i := 0; i < 64; i++ { // warm: maps, slabs, link records, routes
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, roundTrip)
	t.Logf("a heartbeat-shaped Get + Update allocates %v", allocs)
	// 31 when the apiserver decoded its own write, copied the request
	// object, built the key and the three-part transaction, and the store
	// copied the value and allocated its batch and push one by one; 18
	// with a label map (two allocations) and a closure for the write's
	// continuation; 16 with an envelope for each of three RPC requests and
	// three responses, and with the Get, the write and the store's Txn
	// replies allocated one by one. Now: the client's copy, label set,
	// label and request (4); the encoded bytes and the write's record —
	// its transaction, its continuation's state and its reply; the
	// revision's object, the writer's on a stamped copy.
	const want = 7
	if allocs > want {
		t.Fatalf("a heartbeat-shaped Get + Update allocates %v, want <= %d", allocs, want)
	}
	if st := api.Stats(); st.ApplyDecodes != 0 {
		t.Fatalf("the apiserver decoded %d of its own writes", st.ApplyDecodes)
	}
}
