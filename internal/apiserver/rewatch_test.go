package apiserver

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
)

// scanBacklog is the Watch backlog with no windowRev: search the window for
// the first event past startRev and scan the rest for the kind's prefix.
func scanBacklog(s *Server, kind cluster.Kind, startRev int64) ([]WatchEvent, int64) {
	first := s.window.Search(func(e history.Event) bool { return e.Revision > startRev })
	prefix := cluster.KindPrefix(kind)
	var backlog []WatchEvent
	lastSent := startRev
	for i := first; i < s.window.Len(); i++ {
		e := s.window.At(i)
		if !strings.HasPrefix(e.Key, prefix) {
			continue
		}
		if we, ok := s.eventFromWindow(e); ok {
			backlog = append(backlog, we)
			lastSent = e.Revision
		}
	}
	return backlog, lastSent
}

// rewatchKinds are the kinds the quiet-rewatch check asks for: the three
// the writes below commit, one with no events, and one whose slash makes
// its prefix a sub-range of another kind's.
var rewatchKinds = []cluster.Kind{cluster.KindPod, cluster.KindNode, cluster.KindPVC, cluster.KindRegion, cluster.KindPod + "/p1"}

// checkRewatches compares the Watch backlog with the full scan for every
// kind and every StartRev the server would accept, and returns how many of
// those re-watches the windowRev table answered without a scan.
func checkRewatches(t *testing.T, label string, s *Server) (skipped int) {
	t.Helper()
	for _, kind := range rewatchKinds {
		for rev := s.minStartRev; rev <= s.cachedRev; rev++ {
			want, wantSent := scanBacklog(s, kind, rev)
			sub := clientSub{kind: kind, lastSent: rev}
			got := s.backlog(kind, rev, &sub)
			if !reflect.DeepEqual(got, want) || sub.lastSent != wantSent {
				t.Fatalf("%s: Watch(%s, StartRev %d) = %d events, lastSent %d; the scan gives %d events, lastSent %d",
					label, kind, rev, len(got), sub.lastSent, len(want), wantSent)
			}
			if rev >= s.newestInWindow(kind) {
				skipped++
			}
		}
	}
	return skipped
}

// TestQuietRewatchMatchesScan holds the quiet re-watch skip to the scan it
// skips: after every write of a random mix of pod, node and PVC creates,
// updates and deletes on an apiserver whose window trims every few events,
// after a crash and its bootstrap, and on a restored twin fed the same
// events, every kind and every StartRev from minStartRev to cachedRev gets
// the same backlog and the same lastSent either way.
func TestQuietRewatchMatchesScan(t *testing.T) {
	h := servingHarness(t, func(c *Config) { c.WindowSize = 7 })
	api := h.apis[0]
	rng := rand.New(rand.NewSource(1))
	kinds := []cluster.Kind{cluster.KindPod, cluster.KindNode, cluster.KindPVC}
	live := map[string]*cluster.Object{}
	skipped := 0
	write := func(label string, twin *Server) {
		kind := kinds[rng.Intn(len(kinds))]
		name := fmt.Sprintf("%s-%d", kind, rng.Intn(4))
		key := cluster.Key(kind, name)
		var err error
		switch cur, ok := live[key]; {
		case !ok:
			var obj *cluster.Object
			switch kind {
			case cluster.KindPod:
				obj = mkPod(name, "k1")
			case cluster.KindNode:
				obj = mkNode(name)
			default:
				obj = cluster.NewPVC(name, "uid-"+name, cluster.PVCSpec{SizeGB: 1})
			}
			var body any
			if body, err = h.cl.call("api-1", MethodCreate, &CreateRequest{Object: obj}); err == nil {
				live[key] = body.(*WriteResponse).Object
			}
		case rng.Intn(3) == 0:
			if _, err = h.cl.call("api-1", MethodDelete, &DeleteRequest{Kind: kind, Name: name}); err == nil {
				delete(live, key)
			}
		default:
			upd := cur.Clone()
			upd.Meta.Labels = upd.Meta.Labels.With("n", fmt.Sprint(rng.Intn(1000)))
			var body any
			if body, err = h.cl.call("api-1", MethodUpdate, &UpdateRequest{Object: upd}); err == nil {
				live[key] = body.(*WriteResponse).Object
			}
		}
		if err != nil {
			t.Fatalf("%s: %s %s: %v", label, kind, name, err)
		}
		h.w.Kernel().RunFor(5 * sim.Millisecond)
		skipped += checkRewatches(t, label, api)
		if twin != nil {
			// The twin applies the event the original just appended.
			twin.applyOne(api.window.At(api.window.Len() - 1))
			skipped += checkRewatches(t, label+" (restored)", twin)
		}
	}

	for i := 0; i < 60; i++ {
		write(fmt.Sprintf("write %d", i), nil)
	}
	if api.stats.WindowTrims == 0 {
		t.Fatal("the window never trimmed; the check is blind to trims")
	}

	if err := h.w.Crash("api-1"); err != nil {
		t.Fatal(err)
	}
	checkRewatches(t, "crashed", api)
	if err := h.w.Restart("api-1"); err != nil {
		t.Fatal(err)
	}
	h.w.Kernel().RunFor(50 * sim.Millisecond)
	if !api.Ready() || api.window.Len() != 0 {
		t.Fatalf("bootstrap left ready=%v window=%d", api.Ready(), api.window.Len())
	}
	checkRewatches(t, "bootstrapped", api)
	for i := 0; i < 20; i++ {
		write(fmt.Sprintf("after bootstrap, write %d", i), nil)
	}

	// A restored twin starts with no table, builds it on its first Watch
	// and from then on keeps it up to date as the original does.
	twin := Restore(sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond}), api.Snapshot())
	if twin.windowRev != nil {
		t.Fatal("a restored server carries a window table")
	}
	for i := 0; i < 30; i++ {
		write(fmt.Sprintf("restored, write %d", i), twin)
	}
	if skipped == 0 {
		t.Fatal("no re-watch took the skip; the check is vacuous")
	}
}
