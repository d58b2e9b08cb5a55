package explore

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The seeded 56261 bug (scheduler misses a node deletion) is reachable by
// dropping one consumed delivery, so the explorer must find it and
// minimize to exactly that coordinate.
func TestExploreFindsWitness56261(t *testing.T) {
	res := Run(Config{
		Target: workload.Target56261(), Seed: 1,
		Bounds:   Bounds{Drops: 1, Delays: 1},
		POR:      true,
		Snapshot: true,
	})
	if res.Outcome != OutcomeViolation {
		t.Fatalf("outcome = %s, want %s", res.Outcome, OutcomeViolation)
	}
	w := res.Witness
	if w == nil || w.Explanation == nil {
		t.Fatal("violation outcome without witness/explanation")
	}
	if w.MinimalID != "dropdel/scheduler/nodes/n1/DELETED#1" {
		t.Fatalf("minimal witness = %s, want the node-deletion drop", w.MinimalID)
	}
	chain := w.Explanation.Chain
	if len(chain) == 0 || chain[len(chain)-1].Kind != explain.StepViolation {
		t.Fatalf("witness chain does not terminate in a violation step: %+v", chain)
	}
	if res.Stats.ScheduleSpace < 2*res.Stats.SchedulesExecuted {
		t.Fatalf("POR reduction below 2x: space=%d executed=%d",
			res.Stats.ScheduleSpace, res.Stats.SchedulesExecuted)
	}
}

// POR soundness cross-check: the full (no-POR) exploration must find the
// same violation as the reduced one, minimizing to the identical witness.
// Run on a drops-only bound (the delivery-independence reduction) AND on
// a crashes>0 bound (crash decisions must be exempt from the reduction —
// crashing a receiver never commutes, so reducing them would prune
// schedules with no representative). These are the same assertions CI
// runs via phtest -explore.
func TestExplorePORCrossCheck(t *testing.T) {
	for _, bounds := range []Bounds{
		{Drops: 1},
		{Drops: 1, Crashes: 1},
	} {
		var minimal [2]string
		for i, por := range []bool{true, false} {
			res := Run(Config{
				Target: workload.Target56261(), Seed: 1,
				Bounds:   bounds,
				POR:      por,
				Snapshot: true,
			})
			if res.Outcome != OutcomeViolation {
				t.Fatalf("bounds=%+v por=%v: outcome = %s, want violation", bounds, por, res.Outcome)
			}
			minimal[i] = res.Witness.MinimalID
		}
		if minimal[0] != minimal[1] {
			t.Fatalf("bounds=%+v: POR changed the minimized witness: with=%s without=%s",
				bounds, minimal[0], minimal[1])
		}
	}
}

// Crash decisions must survive the reduction verbatim: on a crashes-only
// bound the reduced decision list equals the full one, so POR on and off
// execute the identical schedule set.
func TestExplorePORKeepsCrashDecisions(t *testing.T) {
	var executed [2]uint64
	for i, por := range []bool{true, false} {
		res := Run(Config{
			Target: workload.Target59848(), Seed: 1,
			Bounds:   Bounds{Crashes: 1},
			POR:      por,
			Snapshot: true,
		})
		if res.Outcome != OutcomeCertificate {
			t.Fatalf("por=%v: outcome = %s, want certificate", por, res.Outcome)
		}
		if por && res.Stats.DecisionsReduced != res.Stats.DecisionsFull {
			t.Fatalf("POR reduced crash decisions: full=%d reduced=%d",
				res.Stats.DecisionsFull, res.Stats.DecisionsReduced)
		}
		executed[i] = res.Stats.SchedulesExecuted
	}
	if executed[0] != executed[1] {
		t.Fatalf("crashes-only bound executed %d schedules with POR vs %d without",
			executed[0], executed[1])
	}
}

// A target whose bug the bounded vocabulary cannot reach must certify,
// and the certificate must be byte-identical across reruns and across
// snapshot on/off (forks are a performance detail, not a semantic one).
func TestExploreCertificateDeterministic(t *testing.T) {
	var blobs [][]byte
	for _, snapshot := range []bool{true, true, false} {
		res := Run(Config{
			Target: workload.Target59848(), Seed: 1,
			Bounds:   Bounds{Drops: 1, Delays: 1},
			POR:      true,
			Snapshot: snapshot,
		})
		if res.Outcome != OutcomeCertificate {
			t.Fatalf("snapshot=%v: outcome = %s, want certificate", snapshot, res.Outcome)
		}
		st := res.Stats
		if st.SchedulesExecuted+st.SchedulesCollapsed != st.ScheduleSpace {
			t.Fatalf("collapse accounting broken: executed=%d collapsed=%d space=%d",
				st.SchedulesExecuted, st.SchedulesCollapsed, st.ScheduleSpace)
		}
		blob, err := Marshal(res.Certificate)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("certificate not byte-identical across reruns")
	}
	if !bytes.Equal(blobs[0], blobs[2]) {
		t.Fatal("certificate differs between snapshot on and off")
	}
}

// Checkpoint-tree forking must actually engage on a snapshotable
// certificate run — otherwise "cheap revisits" silently degrades to full
// replays everywhere.
func TestExploreForksEngage(t *testing.T) {
	res := Run(Config{
		Target: workload.Target59848(), Seed: 1,
		Bounds:   Bounds{Drops: 1},
		POR:      true,
		Snapshot: true,
	})
	if res.Outcome != OutcomeCertificate {
		t.Fatalf("outcome = %s, want certificate", res.Outcome)
	}
	if res.Forks == 0 {
		t.Fatalf("no executions served by checkpoint forks (replays=%d)", res.Replays)
	}
}

// The cass-op-398 witness bound at world seed 1005: its schedules fork
// from rungs inside the window (every decision is past 4 s, and each
// drop/delay counter resumes at the rung), and the exploration — witness,
// minimization, explanation, counters — is the same with and without
// snapshots; only how executions were served differs.
func TestExploreWitnessSameWithAndWithoutSnapshot(t *testing.T) {
	var results [2]Result
	for i, snapshot := range []bool{true, false} {
		res := Run(Config{
			Target: workload.TargetCass398(), Seed: 1005,
			Bounds:   Bounds{Drops: 1, Delays: 1, Start: sim.Time(4 * sim.Second)},
			POR:      true,
			Snapshot: snapshot,
		})
		if res.Outcome != OutcomeViolation {
			t.Fatalf("snapshot=%v: outcome = %s, want a witness", snapshot, res.Outcome)
		}
		results[i] = *res
	}
	if results[0].Forks == 0 || results[0].Replays != 0 {
		t.Fatalf("snapshot on: %d forks, %d replays; want every schedule forked", results[0].Forks, results[0].Replays)
	}
	for i := range results {
		results[i].Forks, results[i].Replays = 0, 0
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("exploration differs with snapshots:\n on: %+v\noff: %+v", results[0], results[1])
	}
}

// An exploration that cannot finish within MaxSchedules must abort
// without a certificate — a truncated search proves nothing.
func TestExploreBudgetAbort(t *testing.T) {
	res := Run(Config{
		Target: workload.Target59848(), Seed: 1,
		Bounds:   Bounds{Drops: 1, Delays: 1, MaxSchedules: 3},
		POR:      true,
		Snapshot: false,
	})
	if res.Outcome != OutcomeBudget {
		t.Fatalf("outcome = %s, want %s", res.Outcome, OutcomeBudget)
	}
	if res.Certificate != nil {
		t.Fatal("budget abort must not emit a certificate")
	}
}

// A target whose UNPERTURBED run already violates must yield a violation
// with the empty schedule as witness — never a "no violation within
// bound" certificate. The fixture bakes the known 56261-detecting gap
// into the workload itself, so the reference run fails with no
// exploration decision applied.
func TestExploreReferenceViolationIsWitness(t *testing.T) {
	target := workload.Target56261()
	inner := target.Workload
	target.Workload = func(c *infra.Cluster) {
		core.GapPlan{Victim: "scheduler", Kind: cluster.KindNode, Name: "n1",
			Type: apiserver.Deleted, Occurrence: 1}.Apply(c)
		inner(c)
	}
	res := Run(Config{
		Target: target, Seed: 1,
		Bounds:   Bounds{Drops: 1},
		POR:      true,
		Snapshot: false,
	})
	if res.Outcome != OutcomeViolation {
		t.Fatalf("outcome = %s, want %s (baseline already violates)", res.Outcome, OutcomeViolation)
	}
	if res.Certificate != nil {
		t.Fatal("violating baseline must not emit a certificate")
	}
	if res.Stats.SchedulesExecuted != 1 {
		t.Fatalf("executed = %d, want 1 (the reference run is the witness)", res.Stats.SchedulesExecuted)
	}
	w := res.Witness
	if w == nil || w.Explanation == nil {
		t.Fatal("violation outcome without witness/explanation")
	}
	chain := w.Explanation.Chain
	if len(chain) == 0 || chain[len(chain)-1].Kind != explain.StepViolation {
		t.Fatalf("witness chain does not terminate in a violation step: %+v", chain)
	}
}

// binom must pin to the saturation cap the moment any intermediate
// product saturates — dividing a capped value would fabricate a
// precise-looking sub-cap count that downstream saturating arithmetic
// trusts as exact.
func TestBinomSaturationPinsToCap(t *testing.T) {
	if got := binom(10, 3); got != 120 {
		t.Fatalf("binom(10,3) = %d, want 120", got)
	}
	if got := binom(200, 100); got != satCap {
		t.Fatalf("binom(200,100) = %d, want satCap %d", got, satCap)
	}
	// Monotonicity across the saturation boundary: once saturated, wider
	// inputs must never report a smaller (seemingly exact) space.
	prev := uint64(0)
	for n := 60; n <= 70; n++ {
		got := binom(n, n/2)
		if got < prev {
			t.Fatalf("binom(%d,%d) = %d < binom(%d,%d) = %d: saturation leaked a sub-cap value",
				n, n/2, got, n-1, (n-1)/2, prev)
		}
		prev = got
	}
	if got := chooseUpTo(500, 250); got != satCap {
		t.Fatalf("chooseUpTo(500,250) = %d, want satCap %d", got, satCap)
	}
}

// The window bound clips the choice points: starting the window after
// the 56261 trigger delivery makes the same bound certify.
func TestExploreWindowClipsChoicePoints(t *testing.T) {
	full := Run(Config{
		Target: workload.Target56261(), Seed: 1,
		Bounds: Bounds{Drops: 1}, POR: true, Snapshot: false,
	})
	if full.Outcome != OutcomeViolation {
		t.Fatalf("full window: outcome = %s, want violation", full.Outcome)
	}
	clipped := Run(Config{
		Target: workload.Target56261(), Seed: 1,
		Bounds: Bounds{Start: 2_000_000_000, Drops: 1}, POR: true, Snapshot: false,
	})
	if clipped.Outcome != OutcomeCertificate {
		t.Fatalf("clipped window: outcome = %s, want certificate", clipped.Outcome)
	}
	if clipped.Stats.ChoicePoints >= full.Stats.ChoicePoints {
		t.Fatalf("window did not clip choice points: %d >= %d",
			clipped.Stats.ChoicePoints, full.Stats.ChoicePoints)
	}
}
