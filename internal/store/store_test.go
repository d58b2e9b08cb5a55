package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/history"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	rev := s.Put("/a", []byte("1"))
	if rev != 1 {
		t.Fatalf("rev = %d", rev)
	}
	kv, srev, ok := s.Get("/a")
	if !ok || string(kv.Value) != "1" || srev != 1 {
		t.Fatalf("get = %+v %d %v", kv, srev, ok)
	}
	if kv.CreateRevision != 1 || kv.ModRevision != 1 || kv.Version != 1 {
		t.Fatalf("mvcc meta = %+v", kv)
	}
	rev = s.Put("/a", []byte("2"))
	kv, _, _ = s.Get("/a")
	if kv.CreateRevision != 1 || kv.ModRevision != 2 || kv.Version != 2 {
		t.Fatalf("after update = %+v", kv)
	}
	if _, err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("/a"); ok {
		t.Fatal("deleted key visible")
	}
	if _, err := s.Delete("/a"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Re-create starts a new incarnation.
	s.Put("/a", []byte("3"))
	kv, _, _ = s.Get("/a")
	if kv.Version != 1 || kv.CreateRevision != 4 {
		t.Fatalf("reincarnation = %+v", kv)
	}
}

func TestRangePrefix(t *testing.T) {
	s := New()
	s.Put("/pods/a", []byte("1"))
	s.Put("/pods/b", []byte("2"))
	s.Put("/nodes/x", []byte("3"))
	kvs, rev := s.Range("/pods/")
	if len(kvs) != 2 || rev != 3 {
		t.Fatalf("range = %v rev=%d", kvs, rev)
	}
	if kvs[0].Key != "/pods/a" || kvs[1].Key != "/pods/b" {
		t.Fatalf("range order = %v", kvs)
	}
	all, _ := s.Range("")
	if len(all) != 3 {
		t.Fatalf("empty prefix should match all, got %d", len(all))
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("/a", []byte("abc"))
	kv, _, _ := s.Get("/a")
	kv.Value[0] = 'X'
	kv2, _, _ := s.Get("/a")
	if string(kv2.Value) != "abc" {
		t.Fatal("Get leaked internal buffer")
	}
}

func TestHistoryMatchesMutations(t *testing.T) {
	s := New()
	s.Put("/a", []byte("1"))
	s.Put("/b", []byte("2"))
	s.Put("/a", []byte("3"))
	s.Delete("/b")
	h := s.History()
	if h.Len() != 4 || h.LastRevision() != 4 {
		t.Fatalf("history = %d events last %d", h.Len(), h.LastRevision())
	}
	e := h.At(2)
	if e.Type != history.Put || e.Key != "/a" || e.PrevRev != 1 {
		t.Fatalf("event 3 = %+v", e)
	}
	d := h.At(3)
	if d.Type != history.Delete || d.PrevRev != 2 {
		t.Fatalf("event 4 = %+v", d)
	}
	// Materializing the history yields the live state.
	st := history.Materialize(h)
	if st.Len() != 1 {
		t.Fatalf("materialized len = %d", st.Len())
	}
	if it, ok := st.Get("/a"); !ok || string(it.Value) != "3" {
		t.Fatalf("materialized /a = %+v %v", it, ok)
	}
}

func TestWatchReplaysBacklogThenStreams(t *testing.T) {
	s := New()
	s.Put("/pods/a", []byte("1"))
	s.Put("/pods/b", []byte("2"))
	var got []history.Event
	_, err := s.Watch("/pods/", 0, func(evs []history.Event) { got = append(got, evs...) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("backlog = %v", got)
	}
	s.Put("/pods/c", []byte("3"))
	s.Put("/nodes/x", []byte("4")) // outside prefix
	if len(got) != 3 || got[2].Key != "/pods/c" {
		t.Fatalf("stream = %v", got)
	}
}

func TestWatchFromCurrentRevisionSkipsBacklog(t *testing.T) {
	s := New()
	s.Put("/a", []byte("1"))
	var got []history.Event
	_, err := s.Watch("", s.Revision(), func(evs []history.Event) { got = append(got, evs...) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unexpected backlog: %v", got)
	}
	s.Put("/b", []byte("2"))
	if len(got) != 1 || got[0].Key != "/b" {
		t.Fatalf("got %v", got)
	}
}

func TestWatchCancel(t *testing.T) {
	s := New()
	var got []history.Event
	h, _ := s.Watch("", 0, func(evs []history.Event) { got = append(got, evs...) })
	s.Put("/a", []byte("1"))
	h.Cancel()
	h.Cancel() // idempotent
	s.Put("/b", []byte("2"))
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestWatchFutureRevision(t *testing.T) {
	s := New()
	if _, err := s.Watch("", 5, nil); !errors.Is(err, ErrFutureRevision) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompactionBreaksOldWatch(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put("/k", []byte{byte(i)})
	}
	s.CompactTo(6) // drops revisions 1..5
	if s.CompactedRevision() != 5 {
		t.Fatalf("compacted = %d", s.CompactedRevision())
	}
	if _, err := s.Watch("", 3, nil); !errors.Is(err, ErrCompacted) {
		t.Fatalf("watch at 3: %v", err)
	}
	// Watching from exactly the compaction boundary works (events > 5 retained).
	var got []history.Event
	if _, err := s.Watch("", 5, func(evs []history.Event) { got = append(got, evs...) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replay after compaction = %d events", len(got))
	}
	if _, err := s.EventsSince("", 2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("EventsSince: %v", err)
	}
}

func TestRetainLimitAutoCompacts(t *testing.T) {
	s := New()
	s.SetRetainLimit(4)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("/k%d", i), []byte("v"))
	}
	h := s.History()
	if h.Len() != 4 {
		t.Fatalf("retained = %d, want 4", h.Len())
	}
	if h.FirstRevision() != 7 {
		t.Fatalf("first retained = %d, want 7", h.FirstRevision())
	}
	// Live state is unaffected by compaction.
	if s.Len() != 10 {
		t.Fatalf("live keys = %d", s.Len())
	}
}

func TestTxnCompareAndSwap(t *testing.T) {
	s := New()
	rev := s.Put("/lock", []byte("a"))
	ok, _ := s.CompareAndSwap("/lock", rev, []byte("b"))
	if !ok {
		t.Fatal("CAS with correct rev failed")
	}
	ok, _ = s.CompareAndSwap("/lock", rev, []byte("c")) // stale rev
	if ok {
		t.Fatal("CAS with stale rev succeeded")
	}
	kv, _, _ := s.Get("/lock")
	if string(kv.Value) != "b" {
		t.Fatalf("value = %q", kv.Value)
	}
	// Create-if-absent via expectRev 0.
	ok, _ = s.CompareAndSwap("/new", 0, []byte("x"))
	if !ok {
		t.Fatal("create-if-absent failed")
	}
	ok, _ = s.CompareAndSwap("/new", 0, []byte("y"))
	if ok {
		t.Fatal("create-if-absent on existing key succeeded")
	}
}

func TestTxnBranches(t *testing.T) {
	s := New()
	s.Put("/a", []byte("1"))
	s.Put("/fallback", []byte("ran"))
	// Failing guard → ErrTxnFailed, and no op runs.
	if res, err := s.Txn([]Cmp{{Key: "/a", Target: CmpModRevision, IntVal: 99}},
		[]Op{{Type: OpPut, Key: "/won", Value: nil}}); !errors.Is(err, ErrTxnFailed) || res.Succeeded {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if _, _, ok := s.Get("/won"); ok {
		t.Fatal("ops ran despite a failed guard")
	}
	// Multi-op success branch commits atomically (consecutive revisions).
	before := s.Revision()
	res, err := s.Txn(
		[]Cmp{{Key: "/a", Target: CmpExists, IntVal: 1}},
		[]Op{
			{Type: OpPut, Key: "/m1", Value: []byte("1")},
			{Type: OpDelete, Key: "/fallback"},
		})
	if err != nil || !res.Succeeded {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if res.Revision != before+2 {
		t.Fatalf("revision = %d, want %d", res.Revision, before+2)
	}
}

func TestTxnGuardTargets(t *testing.T) {
	s := New()
	s.Put("/a", []byte("v1"))
	s.Put("/a", []byte("v2"))
	cases := []struct {
		cmp  Cmp
		want bool
	}{
		{Cmp{Key: "/a", Target: CmpModRevision, IntVal: 2}, true},
		{Cmp{Key: "/a", Target: CmpModRevision, IntVal: 1}, false},
		{Cmp{Key: "/a", Target: CmpModRevision, IntVal: 0}, false},
		{Cmp{Key: "/a", Target: CmpExists, IntVal: 1}, true},
		{Cmp{Key: "/zz", Target: CmpExists, IntVal: 0}, true},
		{Cmp{Key: "/zz", Target: CmpExists, IntVal: 1}, false},
		{Cmp{Key: "/zz", Target: CmpModRevision, IntVal: 0}, true},
	}
	for i, c := range cases {
		if got := s.Check(c.cmp); got != c.want {
			t.Errorf("case %d: Check(%+v) = %v, want %v", i, c.cmp, got, c.want)
		}
	}
}

func TestPropertyHistoryMaterializesToState(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		keys := []string{"/a", "/b", "/c", "/d"}
		for i := 0; i < 120; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0, 1:
				s.Put(k, []byte(fmt.Sprintf("v%d", i)))
			case 2:
				_, _ = s.Delete(k)
			}
		}
		mat := history.Materialize(s.History())
		if mat.Len() != s.Len() {
			return false
		}
		for _, k := range mat.Keys() {
			kv, _, ok := s.Get(k)
			it, _ := mat.Get(k)
			if !ok || string(kv.Value) != string(it.Value) || kv.ModRevision != it.ModRevision {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a watcher that subscribes from revision 0 observes exactly the
// full history (H' == H when nothing is perturbed).
func TestPropertyUnperturbedWatchSeesFullHistory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var seen []history.Event
		_, err := s.Watch("", 0, func(evs []history.Event) { seen = append(seen, evs...) })
		if err != nil {
			return false
		}
		keys := []string{"/a", "/b", "/c"}
		for i := 0; i < 60; i++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(4) == 0 {
				_, _ = s.Delete(k)
			} else {
				s.Put(k, []byte{byte(i)})
			}
		}
		full := s.History().Events()
		if len(seen) != len(full) {
			return false
		}
		for i := range full {
			if !full[i].Equal(seen[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: CAS linearizes concurrent writers — of N CAS attempts against
// the same observed revision, exactly one succeeds.
func TestPropertyCASMutualExclusion(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s := New()
		rev := s.Put("/leader", []byte("none"))
		attempts := int(n%8) + 2
		succ := 0
		for i := 0; i < attempts; i++ {
			ok, _ := s.CompareAndSwap("/leader", rev, []byte{byte(i)})
			if ok {
				succ++
			}
		}
		return succ == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixDecodedRebuildsOnlyOnCommitUnderPrefix: a handle's generation
// and its decoded listing move with commits under its own prefix and with
// nothing else — a write to /nodes/ leaves the /pods/ listing the very
// slice it was.
func TestPrefixDecodedRebuildsOnlyOnCommitUnderPrefix(t *testing.T) {
	s := New()
	decodes := 0
	decode := func(value []byte, rev int64) (any, error) {
		decodes++
		return fmt.Sprintf("%s@%d", value, rev), nil
	}
	pods, nodes := s.Track("/pods/"), s.Track("/nodes/")
	if s.Track("/pods/") != pods {
		t.Fatal("Track returned a second handle for the same prefix")
	}
	s.Put("/pods/b", []byte("b"))
	s.Put("/pods/a", []byte("a"))
	s.Put("/nodes/n", []byte("n"))
	list := pods.Decoded(decode)
	if got := fmt.Sprint(list); got != "[a@2 b@1]" {
		t.Fatalf("pods = %s", got)
	}
	if got := fmt.Sprint(nodes.Decoded(decode)); got != "[n@3]" {
		t.Fatalf("nodes = %s", got)
	}

	podGen, nodeGen := pods.Generation().Value(), nodes.Generation().Value()
	decodes = 0
	s.Put("/nodes/n", []byte("n2")) // the heartbeat
	if pods.Generation().Value() != podGen || nodes.Generation().Value() == nodeGen {
		t.Fatalf("after a node commit: pod generation %d→%d (want unchanged), node generation %d→%d (want moved)",
			podGen, pods.Generation().Value(), nodeGen, nodes.Generation().Value())
	}
	if again := pods.Decoded(decode); &again[0] != &list[0] || decodes != 0 {
		t.Fatalf("node commit rebuilt the pod listing (%d decodes)", decodes)
	}
	if got := fmt.Sprint(nodes.Decoded(decode)); got != "[n2@4]" || decodes != 1 {
		t.Fatalf("nodes after heartbeat = %s after %d decodes, want [n2@4] after 1", got, decodes)
	}

	// Commits under the prefix — overwrite, create, delete — each show.
	s.Put("/pods/a", []byte("a2"))
	s.Put("/pods/c", []byte("c"))
	if _, err := s.Delete("/pods/b"); err != nil {
		t.Fatal(err)
	}
	if pods.Generation().Value() != podGen+3 {
		t.Fatalf("pod generation moved %d times over 3 commits", pods.Generation().Value()-podGen)
	}
	if got := fmt.Sprint(pods.Decoded(decode)); got != "[a2@5 c@6]" {
		t.Fatalf("pods after three commits = %s", got)
	}
	if got := fmt.Sprint(list); got != "[a@2 b@1]" {
		t.Fatalf("a listing handed out earlier was rewritten in place: %s", got)
	}
}
