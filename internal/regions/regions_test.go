package regions_test

import (
	"fmt"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/store"
)

type fixture struct {
	w       *sim.World
	servers []*regions.RegionServer
	mgr     *regions.Manager
}

func newFixture(t *testing.T, mode regions.Mode, serverNames []string) *fixture {
	t.Helper()
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond, Jitter: sim.Millisecond / 2})
	store.NewServer(w, "etcd", store.New())
	apiserver.New(w, "api-1", apiserver.DefaultConfig("etcd"))
	f := &fixture{w: w}
	for _, name := range serverNames {
		f.servers = append(f.servers, regions.NewRegionServer(w, name))
	}
	f.mgr = regions.NewManager(w, regions.ManagerConfig{APIServer: "api-1", Mode: mode})
	w.Kernel().RunFor(200 * sim.Millisecond)
	return f
}

func (f *fixture) create(t *testing.T, region, owner string) {
	t.Helper()
	done := false
	f.mgr.CreateRegion(region, owner, func(err error) {
		if err != nil {
			t.Errorf("create %s: %v", region, err)
		}
		done = true
	})
	for !done && f.w.Kernel().Step() {
	}
}

func (f *fixture) move(t *testing.T, region, to string) error {
	t.Helper()
	var out error
	done := false
	f.mgr.Move(region, to, func(err error) { out = err; done = true })
	for !done && f.w.Kernel().Step() {
	}
	if !done {
		t.Fatalf("move %s->%s never completed", region, to)
	}
	return out
}

func ownerOf(f *fixture, region string) []string {
	var out []string
	for _, s := range f.servers {
		for _, r := range s.Owned() {
			if r == region {
				out = append(out, string(s.ID()))
			}
		}
	}
	return out
}

func TestCreateAndMoveSyncMode(t *testing.T) {
	f := newFixture(t, regions.ModeSyncBeforeCAS, []string{"a", "b", "c"})
	f.create(t, "r1", "a")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if got := ownerOf(f, "r1"); len(got) != 1 || got[0] != "rs-a" {
		t.Fatalf("owners = %v", got)
	}
	if err := f.move(t, "r1", "b"); err != nil {
		t.Fatal(err)
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if got := ownerOf(f, "r1"); len(got) != 1 || got[0] != "rs-b" {
		t.Fatalf("owners after move = %v", got)
	}
	if f.mgr.CASFailures != 0 {
		t.Fatalf("mgr stats: %+v", *f.mgr)
	}
}

// TestStaleBlindModeBreaksAtomicity reproduces HBASE-3136: back-to-back
// transitions against a cached view direct the "close" at the wrong
// previous owner, leaving the region served twice.
func TestStaleBlindModeBreaksAtomicity(t *testing.T) {
	f := newFixture(t, regions.ModeStaleBlind, []string{"a", "b", "c"})
	f.create(t, "r1", "a")
	f.w.Kernel().RunFor(100 * sim.Millisecond)

	// Move a->b, then immediately b->c. In blind mode the second move
	// reads the apiserver cache, which may still say owner=a, so server b
	// is never told to close.
	dual := false
	for i := 0; i < 20 && !dual; i++ {
		to1, to2 := "b", "c"
		if i%2 == 1 {
			to1, to2 = "c", "b"
		}
		done := 0
		f.mgr.Move("r1", to1, func(error) { done++ })
		f.mgr.Move("r1", to2, func(error) { done++ })
		for done < 2 && f.w.Kernel().Step() {
		}
		dual = len(regions.DualOwners(f.servers)) > 0
	}
	if !dual {
		t.Fatal("stale-blind mode never produced dual ownership")
	}
}

// TestOptimisticCASStaysAtomic shows HBASE-3137's proposal: cached reads
// with guarded writes retry on staleness but never produce dual owners.
func TestOptimisticCASStaysAtomic(t *testing.T) {
	f := newFixture(t, regions.ModeOptimisticCAS, []string{"a", "b", "c"})
	f.create(t, "r1", "a")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	targets := []string{"b", "c", "a", "c", "b", "a"}
	for i, to := range targets {
		done := false
		f.mgr.Move("r1", to, func(error) { done = true })
		for !done && f.w.Kernel().Step() {
		}
		if dual := regions.DualOwners(f.servers); len(dual) != 0 {
			t.Fatalf("dual owners after move %d: %v", i, dual)
		}
	}
	f.w.Kernel().RunFor(200 * sim.Millisecond)
	if got := ownerOf(f, "r1"); len(got) != 1 {
		t.Fatalf("final owners = %v", got)
	}
}

func TestSyncModeStaysAtomicUnderChurn(t *testing.T) {
	f := newFixture(t, regions.ModeSyncBeforeCAS, []string{"a", "b", "c"})
	for i := 0; i < 4; i++ {
		f.create(t, fmt.Sprintf("r%d", i), "a")
	}
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	names := []string{"a", "b", "c"}
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			region := fmt.Sprintf("r%d", i)
			to := names[(round+i)%3]
			done := false
			f.mgr.Move(region, to, func(error) { done = true })
			for !done && f.w.Kernel().Step() {
			}
		}
		if dual := regions.DualOwners(f.servers); len(dual) != 0 {
			t.Fatalf("round %d dual owners: %v", round, dual)
		}
	}
}

// A move is a continuation of the manager boot that started it: its CAS
// retry and its close-before-open delay are timers of that boot, and come
// due as nothing once it has crashed — also when its successor is already up.
func TestMoveDiesWithItsManager(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode regions.Mode
		// armed reports that the delay under test is pending.
		armed func(f *fixture) bool
	}{
		{"close-before-open", regions.ModeSyncBeforeCAS, func(f *fixture) bool { return len(ownerOf(f, "r1")) == 0 }},
		{"CAS retry", regions.ModeOptimisticCAS, func(f *fixture) bool { return f.mgr.Retries > 0 }},
	} {
		f := newFixture(t, tc.mode, []string{"a", "b", "c"})
		f.create(t, "r1", "a")
		f.w.Kernel().RunFor(100 * sim.Millisecond)
		done := 0
		f.mgr.Move("r1", "b", func(error) { done++ })
		if tc.mode == regions.ModeOptimisticCAS {
			f.mgr.Move("r1", "c", func(error) { done++ }) // reads the cache behind the first: its CAS fails
		}
		for !tc.armed(f) && f.w.Kernel().Step() {
		}
		if !tc.armed(f) {
			t.Fatalf("%s: never armed", tc.name)
		}
		_ = f.w.Crash(regions.ManagerID)
		_ = f.w.Restart(regions.ManagerID)
		doneAt := done
		f.w.Kernel().RunFor(200 * sim.Millisecond)
		if done != doneAt {
			t.Errorf("%s: after the crash %d moves completed, want none: the dead boot's delay ran",
				tc.name, done-doneAt)
		}
	}
}

func TestMoveUnknownRegionFails(t *testing.T) {
	f := newFixture(t, regions.ModeSyncBeforeCAS, []string{"a"})
	if err := f.move(t, "ghost", "a"); err == nil {
		t.Fatal("moving unknown region succeeded")
	}
}

func TestServerCrashLosesRegions(t *testing.T) {
	f := newFixture(t, regions.ModeSyncBeforeCAS, []string{"a", "b"})
	f.create(t, "r1", "a")
	f.w.Kernel().RunFor(100 * sim.Millisecond)
	if err := f.w.Crash(regions.ServerID("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.w.Restart(regions.ServerID("a")); err != nil {
		t.Fatal(err)
	}
	if got := ownerOf(f, "r1"); len(got) != 0 {
		t.Fatalf("restarted server still serves: %v", got)
	}
}
