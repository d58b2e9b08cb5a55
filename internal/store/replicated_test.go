package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/raftlite"
	"repro/internal/sim"
)

type replFixture struct {
	w        *sim.World
	replicas []*ReplicaServer
	cl       *testClient
}

// newReplicas builds an n-replica group and a client, and lets the group
// elect a leader.
func newReplicas(n int) *replFixture {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond, Jitter: sim.Millisecond / 2})
	f := &replFixture{w: w, replicas: NewReplicaGroup(w, n, raftlite.DefaultConfig())}
	f.cl = newTestClient(w, "client")
	w.Kernel().RunFor(2 * sim.Second)
	return f
}

func newReplFixture(t *testing.T, n int) *replFixture {
	t.Helper()
	f := newReplicas(n)
	if f.leader() == nil {
		t.Fatal("no leader after 2s")
	}
	return f
}

func (f *replFixture) leader() *ReplicaServer {
	for _, r := range f.replicas {
		if r.Raft().Role() == raftlite.Leader && !f.w.Crashed(r.ID()) {
			return r
		}
	}
	return nil
}

// put writes key=value at the current leader, waiting out elections and
// following leader changes.
func (f *replFixture) put(key, value string) error {
	for attempt := 0; attempt < 10; attempt++ {
		l := f.leader()
		if l == nil {
			f.w.Kernel().RunFor(500 * sim.Millisecond)
			continue
		}
		_, err := f.cl.call(l.ID(), MethodTxn, putTxn(key, []byte(value)))
		if err == nil {
			return nil
		}
		if _, notLeader := IsNotLeader(err); !notLeader && !errors.Is(err, sim.ErrRPCTimeout) {
			return fmt.Errorf("write %s: %w", key, err)
		}
		f.w.Kernel().RunFor(500 * sim.Millisecond)
	}
	return fmt.Errorf("write %s: no leader found", key)
}

func (f *replFixture) write(t *testing.T, key, value string) {
	t.Helper()
	if err := f.put(key, value); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedWriteVisibleEverywhere(t *testing.T) {
	f := newReplFixture(t, 3)
	f.write(t, "/a", "1")
	f.w.Kernel().RunFor(sim.Second)
	for _, r := range f.replicas {
		kv, _, ok := r.Store().Get("/a")
		if !ok || string(kv.Value) != "1" {
			t.Fatalf("%s missing /a", r.ID())
		}
	}
}

func TestFollowerWriteRedirects(t *testing.T) {
	f := newReplFixture(t, 3)
	l := f.leader()
	var follower *ReplicaServer
	for _, r := range f.replicas {
		if r.ID() != l.ID() {
			follower = r
			break
		}
	}
	_, err := f.cl.call(follower.ID(), MethodTxn, putTxn("/x", []byte("1")))
	hint, notLeader := IsNotLeader(err)
	if !notLeader {
		t.Fatalf("follower accepted write: %v", err)
	}
	if hint != l.ID() {
		t.Fatalf("leader hint = %q, want %q", hint, l.ID())
	}
}

func TestFollowerReadsCanBeStale(t *testing.T) {
	f := newReplFixture(t, 3)
	l := f.leader()
	var follower *ReplicaServer
	for _, r := range f.replicas {
		if r.ID() != l.ID() {
			follower = r
			break
		}
	}
	// Cut the follower off from the rest, then write.
	for _, r := range f.replicas {
		if r.ID() != follower.ID() {
			f.w.Network().Partition(follower.ID(), r.ID())
		}
	}
	f.write(t, "/fresh", "1")
	f.w.Kernel().RunFor(sim.Second)

	// The follower serves a read that misses the committed write: a stale
	// read, the store-level partial history.
	resp, err := f.cl.call(follower.ID(), MethodGet, &GetRequest{Key: "/fresh"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*GetResponse).Found {
		t.Fatal("partitioned follower saw the fresh write")
	}
	// Heal; the follower converges.
	for _, r := range f.replicas {
		if r.ID() != follower.ID() {
			f.w.Network().Heal(follower.ID(), r.ID())
		}
	}
	f.w.Kernel().RunFor(2 * sim.Second)
	resp, err = f.cl.call(follower.ID(), MethodGet, &GetRequest{Key: "/fresh"})
	if err != nil || !resp.(*GetResponse).Found {
		t.Fatalf("healed follower still stale: %v", err)
	}
}

func TestLeaderFailoverWritesContinue(t *testing.T) {
	f := newReplFixture(t, 3)
	f.write(t, "/a", "1")
	l := f.leader()
	if err := f.w.Crash(l.ID()); err != nil {
		t.Fatal(err)
	}
	f.w.Kernel().RunFor(2 * sim.Second)
	f.write(t, "/b", "2")
	f.w.Kernel().RunFor(sim.Second)

	// Restart the old leader: it rebuilds its store from the raft log and
	// catches up, including the write it missed.
	if err := f.w.Restart(l.ID()); err != nil {
		t.Fatal(err)
	}
	f.w.Kernel().RunFor(3 * sim.Second)
	for _, key := range []string{"/a", "/b"} {
		kv, _, ok := l.Store().Get(key)
		if !ok {
			t.Fatalf("recovered replica missing %s", key)
		}
		_ = kv
	}
}

func TestReplicatedHistoriesIdentical(t *testing.T) {
	f := newReplFixture(t, 3)
	for i := 0; i < 6; i++ {
		f.write(t, "/k", string(rune('a'+i)))
	}
	f.w.Kernel().RunFor(sim.Second)
	ref := f.replicas[0].Store().History().Events()
	if len(ref) != 6 {
		t.Fatalf("leader history = %d events", len(ref))
	}
	for _, r := range f.replicas[1:] {
		got := r.Store().History().Events()
		if len(got) != len(ref) {
			t.Fatalf("%s history length %d != %d", r.ID(), len(got), len(ref))
		}
		for i := range ref {
			if !ref[i].Equal(got[i]) {
				t.Fatalf("%s event %d differs", r.ID(), i)
			}
		}
	}
}

func TestReplicatedTxnCAS(t *testing.T) {
	f := newReplFixture(t, 3)
	f.write(t, "/lock", "a")
	l := f.leader()
	kv, _, _ := l.Store().Get("/lock")
	rev := kv.ModRevision
	resp, err := f.cl.call(l.ID(), MethodTxn, &TxnRequest{
		Guards:    []Cmp{{Key: "/lock", Target: CmpModRevision, IntVal: rev}},
		OnSuccess: []Op{{Type: OpPut, Key: "/lock", Value: []byte("b")}},
	})
	if err != nil || !resp.(*TxnResponse).Succeeded {
		t.Fatalf("first CAS: %v %+v", err, resp)
	}
	resp, err = f.cl.call(l.ID(), MethodTxn, &TxnRequest{
		Guards:    []Cmp{{Key: "/lock", Target: CmpModRevision, IntVal: rev}},
		OnSuccess: []Op{{Type: OpPut, Key: "/lock", Value: []byte("c")}},
	})
	if err != nil || resp.(*TxnResponse).Succeeded {
		t.Fatalf("stale CAS: %v %+v", err, resp)
	}
}
