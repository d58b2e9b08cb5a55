package learn

import (
	"reflect"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fixtureTrace builds a synthetic reference trace with the attribution
// shapes the miner must separate:
//
//   - "ctrl" is a cross-kind control loop: it consumes specs/app and
//     reacts by writing pods/app-1 and CAS-updating specs/app.
//   - "agent" is a same-kind echo writer: it consumes pods/app-1 and
//     writes back pod status. It also heartbeats nodes/a1 every 250ms
//     for the whole trace — a background stream that must never be
//     attributed to a delivery.
//   - pods/other is delivered to "agent" but never reacted to: the only
//     writes in its reaction window are heartbeats.
//   - pods/app-1 DELETED reaches "ctrl" with no reaction at all: it must
//     still be consumed (deletion-adjacent), because a missing reaction
//     to a deletion is exactly the observability-gap bug mode.
func fixtureTrace() *trace.Trace {
	tr := &trace.Trace{}
	api := sim.NodeID("api-1")
	del := func(to sim.NodeID, at sim.Time, kind cluster.Kind, name string, et apiserver.EventType, occ int, term bool) {
		tr.Deliveries = append(tr.Deliveries, trace.Delivery{
			From: api, To: to, Time: at, Kind: kind, Name: name,
			EventType: et, Occurrence: occ, Terminating: term,
		})
	}
	write := func(from sim.NodeID, at sim.Time, method *sim.Method, kind cluster.Kind, name string) {
		tr.Writes = append(tr.Writes, trace.Write{From: from, Time: at, Method: method.Name, Kind: kind, Name: name})
	}

	// Background heartbeats: 40 node-status updates over 10s.
	for i := 0; i < 40; i++ {
		write("agent", sim.Time(int64(i)*int64(250*sim.Millisecond)), apiserver.MethodUpdate, "nodes", "a1")
	}

	// Control loop: spec observed, cross-kind reaction.
	del("ctrl", sim.Time(1*sim.Second), "specs", "app", apiserver.Modified, 1, false)
	write("ctrl", sim.Time(1*sim.Second+10*sim.Millisecond), apiserver.MethodCreate, "pods", "app-1")
	write("ctrl", sim.Time(1*sim.Second+20*sim.Millisecond), apiserver.MethodUpdate, "specs", "app")

	// Echo writer: pod observed, same-kind status write.
	del("agent", sim.Time(2*sim.Second), "pods", "app-1", apiserver.Added, 1, false)
	write("agent", sim.Time(2*sim.Second+50*sim.Millisecond), apiserver.MethodUpdate, "pods", "app-1")

	// Observed but never consumed: only heartbeats in the window.
	del("agent", sim.Time(5*sim.Second), "pods", "other", apiserver.Modified, 1, false)

	// Deletion-adjacent, zero reaction: must still be consumed.
	del("ctrl", sim.Time(8*sim.Second), "pods", "app-1", apiserver.Deleted, 1, false)

	// The workload driver is not a component under test.
	del("admin", sim.Time(9*sim.Second), "pods", "app-1", apiserver.Deleted, 1, false)
	return tr
}

func TestMineProfiles(t *testing.T) {
	m := Mine(fixtureTrace(), 0)

	if got := m.Components(); len(got) != 2 || got[0] != "agent" || got[1] != "ctrl" {
		t.Fatalf("components = %v, want [agent ctrl]", got)
	}
	ctrl := m.Profiles["ctrl"]
	if len(ctrl.Consumed) != 2 || ctrl.Deliveries != 2 {
		t.Fatalf("ctrl consumed %d/%d deliveries, want 2/2", len(ctrl.Consumed), ctrl.Deliveries)
	}
	spec := ctrl.Consumed[0]
	if spec.Writes != 2 || spec.CASWrites != 1 || !spec.CrossKind {
		t.Fatalf("spec consumption = %+v, want 2 writes, 1 CAS, cross-kind", spec)
	}
	deletion := ctrl.Consumed[1]
	if deletion.Writes != 0 || !deletion.DeletionAdjacent() {
		t.Fatalf("deletion consumption = %+v, want deletion-adjacent with 0 writes", deletion)
	}

	agent := m.Profiles["agent"]
	if agent.Deliveries != 2 || len(agent.Consumed) != 1 {
		t.Fatalf("agent consumed %d/%d deliveries, want 1/2 (heartbeats must not consume pods/other)",
			len(agent.Consumed), agent.Deliveries)
	}
	pod := agent.Consumed[0]
	if pod.CrossKind {
		t.Fatalf("agent pod consumption marked cross-kind; heartbeat writes leaked into attribution: %+v", pod)
	}
	if pod.Writes != 1 || pod.CASWrites != 1 {
		t.Fatalf("agent pod consumption = %+v, want exactly the status write attributed", pod)
	}

	if _, ok := m.Profiles["admin"]; ok {
		t.Fatal("admin (workload driver) must not be profiled")
	}
}

func TestMineDeterministic(t *testing.T) {
	a, b := Mine(fixtureTrace(), 0), Mine(fixtureTrace(), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Mine is not a pure function of the trace")
	}
}

func TestSurface(t *testing.T) {
	m := Mine(fixtureTrace(), 0)

	// A drop of a consumed delivery resolves to that single consumption.
	known, surf := m.Surface(core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", Type: apiserver.Modified, Occurrence: 1})
	if !known || len(surf) != 1 {
		t.Fatalf("consumed drop surface = (%v, %v), want known singleton", known, surf)
	}
	// A drop of an observed-but-unconsumed delivery has an empty surface.
	known, surf = m.Surface(core.GapPlan{Victim: "agent", Kind: "pods", Name: "other", Type: apiserver.Modified, Occurrence: 1})
	if !known || len(surf) != 0 {
		t.Fatalf("unconsumed drop surface = (%v, %v), want known empty", known, surf)
	}
	// Staleness of the apiserver covers everything that flowed through it.
	known, surf = m.Surface(core.StalenessPlan{Victim: "api-1", From: 0, Until: sim.Time(10 * sim.Second)})
	if !known || len(surf) != m.ConsumedCount() {
		t.Fatalf("full-window staleness surface = (%v, %d), want all %d consumptions", known, len(surf), m.ConsumedCount())
	}
	// Compaction pressure cannot be bounded from the trace.
	if known, _ = m.Surface(core.CompactionPressurePlan{Victim: "ctrl"}); known {
		t.Fatal("compaction surface must be unknown (keep-if-unsure)")
	}
	// Sequences union their members and inherit unknownness.
	known, surf = m.Surface(core.SequencePlan{Name: "s", Plans: []core.Plan{
		core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", Type: apiserver.Modified, Occurrence: 1},
		core.CrashPlan{Component: "agent", At: sim.Time(1 * sim.Second)},
	}})
	if !known || len(surf) < 2 {
		t.Fatalf("sequence surface = (%v, %v), want union of members", known, surf)
	}
	known, _ = m.Surface(core.SequencePlan{Name: "s", Plans: []core.Plan{
		core.CompactionPressurePlan{Victim: "ctrl"},
	}})
	if known {
		t.Fatal("sequence containing an unknown member must be unknown")
	}
}

func fixtureSchedulePlans() []core.Plan {
	aSecond := sim.Time(1 * sim.Second)
	return []core.Plan{
		// 0: consumed drop — kept.
		core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", Type: apiserver.Modified, Occurrence: 1},
		// 1: unconsumed drop — pruned.
		core.GapPlan{Victim: "agent", Kind: "pods", Name: "other", Type: apiserver.Modified, Occurrence: 1},
		// 2, 3: two blackouts over the same consumed delivery — the second
		// dedupes behind the first.
		core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", From: aSecond - sim.Time(100*sim.Millisecond), Until: aSecond + sim.Time(100*sim.Millisecond)},
		core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", From: aSecond - sim.Time(50*sim.Millisecond), Until: aSecond + sim.Time(200*sim.Millisecond)},
		// 4, 5: two staleness windows with identical surfaces — both kept:
		// timing-sensitive families never dedupe.
		core.StalenessPlan{Victim: "api-1", From: 0, Until: sim.Time(10 * sim.Second)},
		core.StalenessPlan{Victim: "api-1", From: sim.Time(100 * sim.Millisecond), Until: sim.Time(10 * sim.Second)},
		// 6: unknown surface — kept conservatively.
		core.CompactionPressurePlan{Victim: "ctrl"},
	}
}

func TestBuildSchedulePruneAndDedupe(t *testing.T) {
	m := Mine(fixtureTrace(), 0)
	plans := fixtureSchedulePlans()
	s := BuildSchedule(m, core.Target{Name: "fixture"}, plans, Options{Prune: true})

	if s.Stats.Planned != 7 || s.Stats.Kept != 5 || s.Stats.Pruned != 1 || s.Stats.Deduped != 1 {
		t.Fatalf("stats = %+v, want planned 7 kept 5 pruned 1 deduped 1", s.Stats)
	}
	actions := map[int]Action{}
	reprs := map[int]int{}
	for _, d := range s.Decisions {
		actions[d.Index] = d.Action
		reprs[d.Index] = d.Representative
	}
	for idx, want := range map[int]Action{0: Keep, 1: Prune, 2: Keep, 3: Dedupe, 4: Keep, 5: Keep, 6: Keep} {
		if actions[idx] != want {
			t.Fatalf("plan %d action = %s, want %s (decisions: %+v)", idx, actions[idx], want, actions)
		}
	}
	if reprs[3] != 2 {
		t.Fatalf("deduped plan 3 representative = %d, want 2", reprs[3])
	}
	// Deferred tail preserves planner order: prune before dedupe here.
	if len(s.Deferred) != 2 || s.Deferred[0].Index != 1 || s.Deferred[1].Index != 3 {
		t.Fatalf("deferred = %+v, want plans 1 then 3", s.Deferred)
	}
	// Without Prune everything is kept in order.
	all := BuildSchedule(m, core.Target{Name: "fixture"}, plans, Options{})
	if all.Stats.Kept != 7 || len(all.Deferred) != 0 {
		t.Fatalf("pruning disabled: stats = %+v, want all 7 kept", all.Stats)
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	m := Mine(fixtureTrace(), 0)
	opts := Options{Prune: true, Rank: true, Affinity: map[string]int{"stale/api-1": 1}}
	a := BuildSchedule(m, core.Target{Name: "fixture"}, fixtureSchedulePlans(), opts)
	b := BuildSchedule(m, core.Target{Name: "fixture"}, fixtureSchedulePlans(), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildSchedule is not a pure function of (model, plans, opts)")
	}
}

func TestRankPreservesFamilyBlocks(t *testing.T) {
	m := Mine(fixtureTrace(), 0)
	s := BuildSchedule(m, core.Target{Name: "fixture"}, fixtureSchedulePlans(), Options{Prune: true, Rank: true})

	// Staleness plans tie the best gap's max-evidence score (their surface
	// contains the same consumptions), but must not jump the gap blocks.
	fams := make([]string, len(s.Kept))
	for i, sp := range s.Kept {
		fams[i] = familyOf(sp.Plan)
	}
	want := []string{"gap/drop", "gap/blackout", "stale", "stale", "compact"}
	if !reflect.DeepEqual(fams, want) {
		t.Fatalf("ranked family order = %v, want %v", fams, want)
	}
	// Unknown surfaces score only the floor and sink to the block's end.
	if _, isCompaction := s.Kept[len(s.Kept)-1].Plan.(core.CompactionPressurePlan); !isCompaction {
		t.Fatalf("unknown-surface plan is not last: %v", s.Kept[len(s.Kept)-1].Plan.ID())
	}
}

func TestRankAffinityOverridesFamilyOrder(t *testing.T) {
	m := Mine(fixtureTrace(), 0)
	s := BuildSchedule(m, core.Target{Name: "fixture"}, fixtureSchedulePlans(),
		Options{Prune: true, Rank: true, Affinity: map[string]int{"stale/api-1": 2}})
	if _, isStale := s.Kept[0].Plan.(core.StalenessPlan); !isStale {
		t.Fatalf("affinity class did not jump to the front: %v", s.Kept[0].Plan.ID())
	}
}

func TestClassOfAndFamilyOf(t *testing.T) {
	drop := core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", Type: apiserver.Modified, Occurrence: 1}
	blackout := core.GapPlan{Victim: "ctrl", Kind: "specs", Name: "app", From: 1, Until: 2}
	if ClassOf(drop) == ClassOf(blackout) {
		t.Fatal("drop and blackout must have distinct classes")
	}
	if familyOf(drop) != "gap/drop" || familyOf(blackout) != "gap/blackout" {
		t.Fatalf("gap families = %q/%q, want gap/drop and gap/blackout", familyOf(drop), familyOf(blackout))
	}
	if familyOf(core.StalenessPlan{Victim: "api-1"}) != "stale" {
		t.Fatalf("staleness family = %q", familyOf(core.StalenessPlan{Victim: "api-1"}))
	}
	seq := core.SequencePlan{Name: "s", Plans: []core.Plan{drop, blackout}}
	if familyOf(seq) != "seq" {
		t.Fatalf("sequence family = %q, want seq", familyOf(seq))
	}
}
