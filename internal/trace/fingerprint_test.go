package trace

import (
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
)

func fingerprintFixture() *Trace {
	t := New()
	t.Deliveries = []Delivery{
		{To: "scheduler", Kind: cluster.KindNode, Name: "n1", EventType: apiserver.Added},
		{To: "scheduler", Kind: cluster.KindNode, Name: "n1", EventType: apiserver.Deleted},
		{To: "kubelet-k1", Kind: cluster.KindPod, Name: "p1", EventType: apiserver.Added},
	}
	t.Commits = []history.Event{
		{Revision: 1, Type: history.Put, Key: "/registry/nodes/n1"},
		{Revision: 2, Type: history.Delete, Key: "/registry/nodes/n1"},
	}
	return t
}

func TestStateHashDeterministic(t *testing.T) {
	a, b := fingerprintFixture(), fingerprintFixture()
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical traces hash differently")
	}
	if a.ComponentHash("scheduler") != b.ComponentHash("scheduler") {
		t.Fatal("identical component sequences hash differently")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	base := fingerprintFixture()

	// Dropping a delivery must change the hash (that is the whole point:
	// a gap plan that actually suppressed an event lands in a different
	// coverage class).
	dropped := fingerprintFixture()
	dropped.Deliveries = dropped.Deliveries[:len(dropped.Deliveries)-1]
	if base.StateHash() == dropped.StateHash() {
		t.Fatal("removing a delivery did not change the state hash")
	}

	// Reordering one component's sequence must change its hash.
	swapped := fingerprintFixture()
	swapped.Deliveries[0], swapped.Deliveries[1] = swapped.Deliveries[1], swapped.Deliveries[0]
	if base.ComponentHash("scheduler") == swapped.ComponentHash("scheduler") {
		t.Fatal("reordering deliveries did not change the component hash")
	}

	// A different committed history must change the hash.
	commits := fingerprintFixture()
	commits.Commits = commits.Commits[:1]
	if base.StateHash() == commits.StateHash() {
		t.Fatal("changing commits did not change the state hash")
	}

	// The terminating marker is decision-relevant and must be hashed.
	term := fingerprintFixture()
	term.Deliveries[0].Terminating = true
	if base.StateHash() == term.StateHash() {
		t.Fatal("terminating marker not reflected in the state hash")
	}
}

func TestStateHashUpTo(t *testing.T) {
	tr := fingerprintFixture()
	for i := range tr.Deliveries {
		tr.Deliveries[i].Time = sim.Time((i + 1) * 10)
	}
	tr.Commits[0].Time = 15
	tr.Commits[1].Time = 25

	if tr.StateHashUpTo(sim.Time(1<<62)) != tr.StateHash() {
		t.Fatal("unbounded prefix hash differs from full StateHash")
	}
	// Two traces sharing a prefix must hash alike at the prefix boundary
	// no matter how their suffixes differ — the visited-set property.
	other := fingerprintFixture()
	for i := range other.Deliveries {
		other.Deliveries[i].Time = sim.Time((i + 1) * 10)
	}
	other.Commits[0].Time = 15
	other.Commits[1].Time = 25
	other.Deliveries[2].Name = "p2" // diverge strictly after t=20
	other.Commits[1].Key = "/registry/pods/p2"
	if tr.StateHashUpTo(20) != other.StateHashUpTo(20) {
		t.Fatal("suffix divergence leaked into the prefix hash")
	}
	if tr.StateHashUpTo(30) == other.StateHashUpTo(30) {
		t.Fatal("post-divergence prefixes collided")
	}
	// Prefixes that admit different suffixes must differ.
	if tr.StateHashUpTo(10) == tr.StateHashUpTo(30) {
		t.Fatal("distinct prefixes collided")
	}
}

func TestComponentHashesCoverAllComponents(t *testing.T) {
	tr := fingerprintFixture()
	hashes := tr.ComponentHashes()
	if len(hashes) != 2 {
		t.Fatalf("expected 2 component hashes, got %d", len(hashes))
	}
	if hashes["scheduler"] == hashes["kubelet-k1"] {
		t.Fatal("distinct delivery sequences collided")
	}
}
