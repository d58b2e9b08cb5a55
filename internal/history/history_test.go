package history

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkEvent(rev int64, typ EventType, key, val string) Event {
	e := Event{Revision: rev, Type: typ, Key: key, Time: rev * 10}
	if typ == Put {
		e.Value = []byte(val)
	}
	return e
}

// genHistory builds a random but valid history of n events over k keys,
// tracking PrevRev per key like a real store would.
func genHistory(rng *rand.Rand, n, k int) *History {
	h := New()
	prev := make(map[string]int64)
	for rev := int64(1); rev <= int64(n); rev++ {
		key := fmt.Sprintf("key-%d", rng.Intn(k))
		if prev[key] != 0 && rng.Intn(4) == 0 {
			_ = h.Append(Event{Revision: rev, Type: Delete, Key: key, PrevRev: prev[key], Time: rev * 10})
			prev[key] = 0
			continue
		}
		_ = h.Append(Event{Revision: rev, Type: Put, Key: key,
			Value: []byte(fmt.Sprintf("v%d", rev)), PrevRev: prev[key], Time: rev * 10})
		prev[key] = rev
	}
	return h
}

// subsample keeps each event with probability p, preserving order.
func subsample(h *History, rng *rand.Rand, p float64) *History {
	out := New()
	for _, e := range h.Events() {
		if rng.Float64() < p {
			_ = out.Append(e)
		}
	}
	return out
}

func TestAppendMonotonic(t *testing.T) {
	h := New()
	if err := h.Append(mkEvent(1, Put, "a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(mkEvent(1, Put, "a", "2")); err == nil {
		t.Fatal("duplicate revision accepted")
	}
	if err := h.Append(mkEvent(0, Put, "a", "2")); err == nil {
		t.Fatal("zero revision accepted")
	}
	if err := h.Append(mkEvent(5, Put, "a", "2")); err != nil {
		t.Fatal(err)
	}
	if h.LastRevision() != 5 || h.Len() != 2 {
		t.Fatalf("len=%d last=%d", h.Len(), h.LastRevision())
	}
}

func TestSinceAndFind(t *testing.T) {
	h := New()
	for _, rev := range []int64{2, 4, 6, 8} {
		_ = h.Append(mkEvent(rev, Put, "k", "v"))
	}
	since := h.Since(4)
	if len(since) != 2 || since[0].Revision != 6 || since[1].Revision != 8 {
		t.Fatalf("Since(4) = %v", since)
	}
	if len(h.Since(8)) != 0 {
		t.Fatal("Since(last) should be empty")
	}
	if len(h.Since(0)) != 4 {
		t.Fatal("Since(0) should return everything")
	}
	if e, ok := h.Find(6); !ok || e.Revision != 6 {
		t.Fatalf("Find(6) = %v %v", e, ok)
	}
	if _, ok := h.Find(5); ok {
		t.Fatal("Find(5) should miss")
	}
}

func TestCompactDropsPrefix(t *testing.T) {
	h := New()
	for rev := int64(1); rev <= 10; rev++ {
		_ = h.Append(mkEvent(rev, Put, "k", "v"))
	}
	dropped := h.Compact(6)
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	if h.FirstRevision() != 6 || h.LastRevision() != 10 {
		t.Fatalf("first=%d last=%d", h.FirstRevision(), h.LastRevision())
	}
}

func TestIsPartialOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := genHistory(rng, 50, 5)
	part := subsample(full, rng, 0.5)
	if !part.IsPartialOf(full) {
		t.Fatal("subsample must be a partial history")
	}
	if !full.IsPartialOf(full) {
		t.Fatal("history is a partial history of itself")
	}
	if !New().IsPartialOf(full) {
		t.Fatal("empty history is a partial history of anything")
	}

	// Fabricated event with an existing revision but different content.
	fake := New()
	e := full.At(3)
	e.Value = []byte("tampered")
	_ = fake.Append(e)
	if fake.IsPartialOf(full) {
		t.Fatal("tampered event accepted as partial history")
	}

	// Event with a revision that never existed.
	fake2 := New()
	_ = fake2.Append(mkEvent(9999, Put, "x", "y"))
	if fake2.IsPartialOf(full) {
		t.Fatal("unknown revision accepted as partial history")
	}
}

func TestMissingFromIsGapsNotLag(t *testing.T) {
	full := New()
	for rev := int64(1); rev <= 10; rev++ {
		_ = full.Append(mkEvent(rev, Put, "k", "v"))
	}
	part := New()
	_ = part.Append(full.At(0)) // rev 1
	_ = part.Append(full.At(4)) // rev 5
	missing := part.MissingFrom(full)
	// Gaps are revs 2,3,4 (below frontier 5); revs 6..10 are lag, not gaps.
	if len(missing) != 3 {
		t.Fatalf("missing = %v", missing)
	}
	for i, rev := range []int64{2, 3, 4} {
		if missing[i].Revision != rev {
			t.Fatalf("missing[%d] = %v, want rev %d", i, missing[i], rev)
		}
	}
}

func TestPropertySubsampleAlwaysPartial(t *testing.T) {
	f := func(seed int64, pNum uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		full := genHistory(rng, 80, 6)
		p := float64(pNum%100) / 100
		part := subsample(full, rng, p)
		if !part.IsPartialOf(full) {
			return false
		}
		// gaps + observed = all events up to the frontier
		missing := part.MissingFrom(full)
		frontier := part.LastRevision()
		upTo := 0
		for _, e := range full.Events() {
			if e.Revision <= frontier {
				upTo++
			}
		}
		return len(missing)+part.Len() == upTo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMaterializeEqualsIncremental(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		full := genHistory(rng, 60, 5)
		s1 := Materialize(full)
		s2 := NewState()
		for _, e := range full.Events() {
			s2.Apply(e)
		}
		return s1.Equal(s2) && s1.Revision == full.LastRevision()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeduplicatesByRevision(t *testing.T) {
	s := NewState()
	e := mkEvent(3, Put, "a", "x")
	if !s.Apply(e) {
		t.Fatal("first apply rejected")
	}
	if s.Apply(e) {
		t.Fatal("duplicate apply accepted")
	}
	if s.Apply(mkEvent(2, Put, "a", "older")) {
		t.Fatal("older event accepted")
	}
	it, _ := s.Get("a")
	if string(it.Value) != "x" {
		t.Fatalf("value = %q", it.Value)
	}
}

func TestStateVersionAndCreateRevision(t *testing.T) {
	s := NewState()
	s.Apply(Event{Revision: 1, Type: Put, Key: "a", Value: []byte("1")})
	s.Apply(Event{Revision: 2, Type: Put, Key: "a", Value: []byte("2"), PrevRev: 1})
	it, _ := s.Get("a")
	if it.CreateRevision != 1 || it.ModRevision != 2 || it.Version != 2 {
		t.Fatalf("item = %+v", it)
	}
	s.Apply(Event{Revision: 3, Type: Delete, Key: "a", PrevRev: 2})
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	// Re-create: new incarnation.
	s.Apply(Event{Revision: 4, Type: Put, Key: "a", Value: []byte("3")})
	it, _ = s.Get("a")
	if it.CreateRevision != 4 || it.Version != 1 {
		t.Fatalf("reincarnated item = %+v", it)
	}
}

func TestDiffIsLossy(t *testing.T) {
	// The §4.2.3 argument: mark-then-delete between two snapshots shows up
	// only as a disappearance; the intermediate "marked" event is invisible.
	full := New()
	_ = full.Append(mkEvent(1, Put, "pod", "running"))
	s0 := Materialize(full)
	_ = full.Append(mkEvent(2, Put, "pod", "terminating")) // e1: marked
	_ = full.Append(mkEvent(3, Delete, "pod", ""))         // e2: deleted
	s1 := Materialize(full)

	deltas := Diff(s0, s1)
	if len(deltas) != 1 {
		t.Fatalf("deltas = %v", deltas)
	}
	d := deltas[0]
	if d.After != nil || d.Before == nil {
		t.Fatalf("delta = %+v", d)
	}
	if string(d.Before.Value) != "running" {
		t.Fatalf("before = %q; the 'terminating' intermediate must be unobservable", d.Before.Value)
	}
}

func TestDiffOrderingAndKinds(t *testing.T) {
	old := NewState()
	old.Apply(mkEvent(1, Put, "a", "1"))
	old.Apply(mkEvent(2, Put, "b", "1"))
	new := old.Clone()
	new.Apply(Event{Revision: 3, Type: Delete, Key: "a", PrevRev: 1})
	new.Apply(Event{Revision: 4, Type: Put, Key: "b", Value: []byte("2"), PrevRev: 2})
	new.Apply(mkEvent(5, Put, "c", "1"))
	deltas := Diff(old, new)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %+v", deltas)
	}
	if deltas[0].Key != "a" || deltas[0].After != nil {
		t.Fatalf("delta a = %+v", deltas[0])
	}
	if deltas[1].Key != "b" || deltas[1].Before == nil || deltas[1].After == nil {
		t.Fatalf("delta b = %+v", deltas[1])
	}
	if deltas[2].Key != "c" || deltas[2].Before != nil {
		t.Fatalf("delta c = %+v", deltas[2])
	}
}

func TestMeasureDivergence(t *testing.T) {
	full := New()
	for rev := int64(1); rev <= 10; rev++ {
		_ = full.Append(mkEvent(rev, Put, "k", "v"))
	}
	part := New()
	_ = part.Append(full.At(0))
	_ = part.Append(full.At(2)) // rev 3; gap at rev 2
	d := Measure(part, full)
	if d.LagRevisions != 7 {
		t.Fatalf("lag = %d, want 7", d.LagRevisions)
	}
	if d.MissingEvents != 1 {
		t.Fatalf("missing = %d, want 1", d.MissingEvents)
	}
	if d.LagTime != 70 { // times are rev*10
		t.Fatalf("lagTime = %d", d.LagTime)
	}
	if d.Current() {
		t.Fatal("diverged view reported current")
	}
	if !Measure(full.Clone(), full).Current() {
		t.Fatal("identical view reported diverged")
	}
}

func TestObservationLogTimeTravel(t *testing.T) {
	// rev 3 after max 5, rev 4 after max 5, rev 2 after max 6.
	episodes, depth := TimeTravel([]int64{1, 2, 5, 3, 4, 6, 2})
	if episodes != 3 {
		t.Fatalf("episodes = %d, want 3", episodes)
	}
	if depth != 4 { // 6 - 2
		t.Fatalf("depth = %d, want 4", depth)
	}
}

func TestObservationLogMonotone(t *testing.T) {
	if episodes, depth := TimeTravel([]int64{1, 2, 3, 4, 5}); episodes != 0 || depth != 0 {
		t.Fatalf("monotone revisions reported time travel: (%d, %d)", episodes, depth)
	}
}

func TestTimeTravel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		revs     []int64
		episodes int
		depth    int64
	}{
		{"empty", nil, 0, 0},
		{"monotone", []int64{1, 2, 3, 4, 5}, 0, 0},
		{"one regression", []int64{1, 2, 5, 3}, 1, 2},
		{"two episodes", []int64{1, 5, 3, 7, 6}, 2, 2},
		{"running maximum again", []int64{1, 5, 5, 6}, 0, 0},
		{"largest, not last", []int64{1, 9, 2, 10, 8}, 2, 7},
	} {
		episodes, depth := TimeTravel(tc.revs)
		if episodes != tc.episodes || depth != tc.depth {
			t.Errorf("%s: TimeTravel(%v) = (%d, %d), want (%d, %d)",
				tc.name, tc.revs, episodes, depth, tc.episodes, tc.depth)
		}
	}
}

func TestEpochsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	full := genHistory(rng, 10, 3)
	eps := Epochs(full, 4)
	if len(eps) != 3 {
		t.Fatalf("epochs = %d, want 3", len(eps))
	}
	if len(eps[0]) != 4 || len(eps[2]) != 2 {
		t.Fatalf("epoch sizes: %d %d %d", len(eps[0]), len(eps[1]), len(eps[2]))
	}
	if eps[1][0].Revision != full.Events()[4].Revision {
		t.Fatalf("epoch 1 starts at revision %d", eps[1][0].Revision)
	}
}

func TestEpochVisibility(t *testing.T) {
	full := New()
	for rev := int64(1); rev <= 8; rev++ {
		_ = full.Append(mkEvent(rev, Put, "k", "v"))
	}
	// View sees epoch 0 fully (1..4) and epoch 1 partially (5 only): torn.
	view := New()
	for _, rev := range []int64{1, 2, 3, 4, 5} {
		e, _ := full.Find(rev)
		_ = view.Append(e)
	}
	viol := CheckEpochVisibility(view, full, 4)
	if len(viol) != 1 || len(viol[0]) != 4 || viol[0][0].Revision != 5 {
		t.Fatalf("torn epochs = %+v", viol)
	}

	fixed := TruncateToEpochBoundary(view, full, 4)
	if fixed.LastRevision() != 4 {
		t.Fatalf("truncated frontier = %d, want 4", fixed.LastRevision())
	}
	if v := CheckEpochVisibility(fixed, full, 4); len(v) != 0 {
		t.Fatalf("truncated view still torn: %+v", v)
	}
}

func TestPropertyEpochTruncationSound(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		full := genHistory(rng, 40, 4)
		size := int(sz%7) + 1
		view := subsample(full, rng, 0.7)
		// A subsampled view may be torn, but gap-free prefixes truncated to
		// epoch boundaries must never be torn.
		prefix := New()
		for _, e := range full.Events() {
			if e.Revision > view.LastRevision() {
				break
			}
			_ = prefix.Append(e)
		}
		fixed := TruncateToEpochBoundary(prefix, full, size)
		return len(CheckEpochVisibility(fixed, full, size)) == 0 && fixed.IsPartialOf(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := New()
	_ = h.Append(mkEvent(1, Put, "a", "1"))
	c := h.Clone()
	_ = c.Append(mkEvent(2, Put, "b", "2"))
	if h.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", h.Len(), c.Len())
	}

	s := Materialize(h)
	cs := s.Clone()
	cs.Apply(mkEvent(2, Put, "a", "mutated"))
	it, _ := s.Get("a")
	if string(it.Value) != "1" {
		t.Fatal("state clone not deep")
	}
}

func TestFromEventsValidates(t *testing.T) {
	if _, err := FromEvents([]Event{mkEvent(2, Put, "a", "1"), mkEvent(1, Put, "b", "2")}); err == nil {
		t.Fatal("out-of-order events accepted")
	}
	h, err := FromEvents([]Event{mkEvent(1, Put, "a", "1"), mkEvent(2, Put, "b", "2")})
	if err != nil || h.Len() != 2 {
		t.Fatalf("valid events rejected: %v", err)
	}
}
