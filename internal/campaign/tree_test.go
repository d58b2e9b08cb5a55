package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runBoth executes the same campaign with snapshotting off and on and
// returns both results. Everything downstream compares canonicalized
// forms: fork vs. full replay is an implementation detail that must never
// surface in any artifact.
func runBoth(t *testing.T, target core.Target, s func() core.Strategy, cfg Config) (off, on Result) {
	t.Helper()
	cfgOff, cfgOn := cfg, cfg
	cfgOff.Snapshot = false
	cfgOn.Snapshot = true
	off = New(cfgOff).Run(target, s())
	on = New(cfgOn).Run(target, s())
	return off, on
}

// assertEquivalent asserts that two campaigns are the same campaign:
// equal canonicalized Results, byte-identical canonicalized artifacts and
// byte-identical NDJSON streams. Snapshot off vs. on, and one side of a
// Merge law vs. the other, both come through here.
func assertEquivalent(t *testing.T, want, got Result, cfgWant, cfgGot Config) {
	t.Helper()
	if !reflect.DeepEqual(Canonicalize(want), Canonicalize(got)) {
		t.Fatalf("canonicalized results differ\nwant: %+v\n got: %+v", Canonicalize(want), Canonicalize(got))
	}
	artWant, err := json.MarshalIndent(CanonicalizeArtifact(BuildArtifact(want, cfgWant)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	artGot, err := json.MarshalIndent(CanonicalizeArtifact(BuildArtifact(got, cfgGot)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artWant, artGot) {
		t.Fatalf("canonicalized campaign.json bytes differ:\n--- want ---\n%s\n--- got ---\n%s", artWant, artGot)
	}
	var ndWant, ndGot bytes.Buffer
	if err := WriteNDJSON(&ndWant, want, cfgWant); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&ndGot, got, cfgGot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ndWant.Bytes(), ndGot.Bytes()) {
		t.Fatalf("telemetry NDJSON bytes differ:\n--- want ---\n%s\n--- got ---\n%s", ndWant.Bytes(), ndGot.Bytes())
	}
}

// snapshotEquivalence runs base on all five targets — the k8s pair and the
// three cassandra-operator ones, all snapshotable — with Snapshot off and
// on, and asserts the two are the same campaign. The mesh is one width-4
// row at seed 1 (width-independence is TestParallelMatchesSerial's job)
// and one two-seed row holding the world seeds on which a fork used to
// lose a ScaleDownCompletes violation full replay reports: cass-op-398 @
// 1021 and cass-op-402 @ 1009 (EXPERIMENTS.md, "Forked ≡ replayed").
func snapshotEquivalence(t *testing.T, base Config) {
	targets := []core.Target{
		workload.Target59848(),
		workload.Target56261(),
		workload.TargetCass398(),
		workload.TargetCass400(),
		workload.TargetCass402(),
	}
	rows := []struct {
		workers int
		seeds   []int64
	}{
		{4, []int64{1}},
		{2, []int64{1021, 1009}},
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			if testing.Short() && (target.Name == "cass-op-400" || target.Name == "cass-op-402") {
				t.Skip("short mode: cassandra fork path covered by cass-op-398")
			}
			for _, row := range rows {
				cfg := base
				cfg.Workers, cfg.Seeds = row.workers, row.seeds
				off, on := runBoth(t, target, func() core.Strategy { return core.NewPlanner() }, cfg)
				cfgOff, cfgOn := cfg, cfg
				cfgOff.Snapshot, cfgOn.Snapshot = false, true
				assertEquivalent(t, off, on, cfgOff, cfgOn)
			}
		})
	}
}

// TestSnapshotMatchesFullReplay is the correctness cross-check the prefix
// checkpoint layer exists to honor: for every seeded-bug target, a
// campaign with Config.Snapshot produces byte-identical canonicalized
// campaign.json artifacts and NDJSON telemetry streams to the same
// campaign replaying every plan from t=0.
func TestSnapshotMatchesFullReplay(t *testing.T) {
	snapshotEquivalence(t, Config{MaxExecutions: 25, Collect: true, KeepGoing: true})
}

// firstDetecting returns the first plan that detects the target's bug as a
// full replay.
func firstDetecting(t *testing.T, target core.Target, plans []core.Plan, seed int64) core.Plan {
	t.Helper()
	for _, p := range plans {
		if exec, _ := runGuarded(target, p, seed, false, 0); exec.Detected {
			return p
		}
	}
	t.Fatalf("no plan detects on %s: the test is vacuous", target.Name)
	return nil
}

// checkForks runs probes through the tree and asserts every forked
// execution agrees with its full replay — violations, detection and (when
// instrumented) coverage signature — that a probe which does not fork has
// no diagnosable cause, and that at least one probe (allFork: every probe)
// was really served by a fork.
func checkForks(t *testing.T, target core.Target, pt *planTree, probes []core.Plan, instrument, allFork bool) {
	t.Helper()
	if pt == nil || len(pt.rungs) == 0 {
		t.Fatal("no tree, or a tree without rungs, for a snapshotable target")
	}
	forked := 0
	for i, q := range probes {
		exec, tr, ok, cause := pt.run(target, q, instrument, 0)
		if !ok {
			if cause != fallbackNone || allFork {
				t.Fatalf("probe %d (%s) fell back (cause %d)", i, q.Describe(), cause)
			}
			continue
		}
		forked++
		want, wantTr := runGuarded(target, q, pt.seed, instrument, 0)
		sig, wantSig := signatureOrZero(tr, exec), signatureOrZero(wantTr, want)
		if !reflect.DeepEqual(exec.Violations, want.Violations) ||
			exec.Detected != want.Detected || sig != wantSig {
			t.Fatalf("probe %d (%s): fork diverged from full replay\nfork: det=%v sig=%x viol=%+v\nfull: det=%v sig=%x viol=%+v",
				i, q.Describe(), exec.Detected, sig, exec.Violations,
				want.Detected, wantSig, want.Violations)
		}
	}
	if forked == 0 {
		t.Fatal("no probe forked: the snapshot cross-checks would be vacuous")
	}
	t.Logf("forked %d/%d probes from %d rungs", forked, len(probes), len(pt.rungs))
}

// TestSnapshotActuallyForks guards the equivalence cross-checks against
// passing vacuously: on a snapshotable target the substrate must build,
// hold rungs, and serve probes by forking, and every forked execution must
// agree with its full replay — one row per shape of base the substrate
// serves.
func TestSnapshotActuallyForks(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	detected := firstDetecting(t, target, plans, seed)
	// The minimizer's candidate shapes: the detected plan and, for a
	// sequence, each leave-one-out variant.
	minimizerProbes := []core.Plan{detected}
	if sp, isSeq := detected.(core.SequencePlan); isSeq && len(sp.Plans) > 1 {
		for i := range sp.Plans {
			cand := make([]core.Plan, 0, len(sp.Plans)-1)
			cand = append(cand, sp.Plans[:i]...)
			cand = append(cand, sp.Plans[i+1:]...)
			minimizerProbes = append(minimizerProbes, core.SequencePlan{Name: sp.Name + "-min", Plans: cand})
		}
	}

	rows := []struct {
		name       string
		base       core.Plan
		hints      []core.Plan
		probes     []core.Plan
		instrument bool
	}{
		// The engine sweep: every plan forks from the reference run.
		{"plan-free base", core.NopPlan{}, plans, plans[:20], true},
		// Minimize: rungs are mid-plan; the base plan itself is served
		// from the tree's own base run.
		{"detected-plan base", detected, subPlans(detected), minimizerProbes, false},
		// Explain: the instrumented re-execution has no base-run shortcut —
		// it forks from the deepest mid-plan rung and must splice the
		// rung's trace prefix onto the recorded suffix.
		{"detected-plan base, instrumented", detected, subPlans(detected), minimizerProbes, true},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			pt := buildPlanTree(target, row.base, seed, ref, effectTimes(row.hints, ref))
			checkForks(t, target, pt, row.probes, row.instrument, false)
		})
	}
}

// TestForkAtBuildBoundary is the InstallPending boundary regression: a
// plan whose first perturbation lands exactly at the first rung's instant
// — the build-boundary sequence band edge — must fork (not fall back) and
// agree byte-for-byte with its full replay. Events carrying seq ==
// buildSeq are the last pre-build allocations and must NOT shift; the
// first post-build allocation (the plan's own timer) must.
func TestForkAtBuildBoundary(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectTimes(plans, ref))
	if pt == nil {
		t.Fatal("buildPlanTree returned nil")
	}
	for _, p := range plans {
		if sp, ok := p.(core.StalenessPlan); ok {
			sp.From = pt.rungs[0].at
			if sp.Until != 0 && sp.Until <= sp.From {
				sp.Until = 0
			}
			checkForks(t, target, pt, []core.Plan{sp}, true, true)
			return
		}
	}
	t.Fatal("planner produced no staleness plan")
}

// TestForkPastEffectIsStrictPast pins the strict-past guard on the
// plan-free base: forcing a fork from a rung LATER than a plan's earliest
// effect — what a wrong divergence bound would do — is refused as a counted
// strict_past fallback with no execution, never run with the plan's timer
// silently burned. Both builders of a plan-free tree are covered.
func TestForkPastEffectIsStrictPast(t *testing.T) {
	target := workload.Target59848()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	hints := effectTimes(plans, ref)
	trees := map[string]*planTree{
		"engine": buildPlanTree(target, core.NopPlan{}, seed, ref, hints),
		"forker": NewForker(target, seed, ref, hints).pt,
	}
	for name, pt := range trees {
		if pt == nil || len(pt.rungs) < 2 {
			t.Fatalf("%s: tree needs at least two rungs", name)
		}
		last := &pt.rungs[len(pt.rungs)-1]
		var early core.Plan
		for _, p := range plans {
			if sp, ok := p.(core.StalenessPlan); ok && sp.From < last.at {
				early = p
				break
			}
		}
		if early == nil {
			t.Fatalf("%s: no staleness plan starts before the last rung (%s)", name, last.at)
		}
		if rg := pt.forkRung(early); rg == nil || rg.at >= last.at {
			t.Fatalf("%s: the divergence rule should pick a rung before the last one", name)
		}
		exec, tr, ok, cause := pt.forkFrom(last, target, early, true, 0)
		if ok || cause != fallbackStrictPast {
			t.Fatalf("%s: fork past the plan's effect: ok=%v cause=%d, want a strict_past fallback", name, ok, cause)
		}
		if tr != nil || !reflect.DeepEqual(exec, core.Execution{}) {
			t.Fatalf("%s: a refused fork must return no execution, got %+v", name, exec)
		}
	}
}

// TestDroppedPushesDisqualifyOccurrencePlans pins the dropped-push rule on
// the engine path: the k8s-56261 reference run loses watch pushes, so its
// Deliveries under-report what an occurrence-counting interceptor sees and
// no first-match bound is trustworthy. Occurrence-counted plans are then
// served by full replay — routine, not a counted fallback — time-based
// plans still fork, and the campaign stays byte-identical to Snapshot off.
func TestDroppedPushesDisqualifyOccurrencePlans(t *testing.T) {
	target := workload.Target56261()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectTimes(plans, ref))
	if pt == nil || pt.baseDrops == 0 {
		t.Fatalf("k8s-56261 seed 1 should build a tree over a reference with dropped pushes (tree %v)", pt != nil)
	}
	lastOcc, forked := -1, 0
	for i, p := range plans {
		_, _, ok, cause := pt.run(target, p, false, 0)
		if cause != fallbackNone {
			t.Fatalf("plan %d (%s): diagnosable fallback cause %d", i, p.Describe(), cause)
		}
		if gp, isGap := p.(core.GapPlan); isGap && gp.Occurrence > 0 {
			if ok {
				t.Fatalf("plan %d (%s) forked although the base trace dropped %d pushes", i, p.Describe(), pt.baseDrops)
			}
			lastOcc = i
		} else if ok {
			forked++
		}
	}
	if lastOcc < 0 || forked == 0 {
		t.Fatalf("vacuous: last occurrence-counted gap plan at %d, %d other plans forked", lastOcc, forked)
	}
	cfg := Config{Workers: 2, MaxExecutions: lastOcc + 1, Collect: true, KeepGoing: true}
	off, on := runBoth(t, target, func() core.Strategy { return core.NewPlanner() }, cfg)
	cfgOff, cfgOn := cfg, cfg
	cfgOff.Snapshot, cfgOn.Snapshot = false, true
	assertEquivalent(t, off, on, cfgOff, cfgOn)
	if on.Stats.SnapshotFallbacks != nil {
		t.Fatalf("replaying a disqualified plan is routine, not a fallback: %+v", *on.Stats.SnapshotFallbacks)
	}
}

// TestRungSchedule pins rung placement: the build boundary first, hints
// outside (buildEnd, end) ignored, each rung captureMargin before its
// hint, a short hint list kept whole, and a long one thinned to
// mass-weighted quantiles so a moment many plans share gets its rung.
func TestRungSchedule(t *testing.T) {
	const ms = sim.Millisecond
	buildEnd, end := sim.Time(100*ms), sim.Time(1000*ms)
	at := func(ds ...sim.Duration) []sim.Time {
		out := make([]sim.Time, len(ds))
		for i, d := range ds {
			out[i] = sim.Time(d)
		}
		return out
	}
	if got := rungSchedule(buildEnd, end, nil); !reflect.DeepEqual(got, at(100*ms)) {
		t.Fatalf("no hints: got %v, want the build boundary only", got)
	}
	got := rungSchedule(buildEnd, end, at(500*ms, 50*ms, 300*ms, 300*ms, 2000*ms, 102*ms))
	if want := at(100*ms, 296*ms, 496*ms); !reflect.DeepEqual(got, want) {
		t.Fatalf("short list: got %v, want %v", got, want)
	}
	var many []sim.Time
	for i := 0; i < 100; i++ {
		many = append(many, sim.Time(400*ms)) // the hot moment
	}
	for i := 0; i < 30; i++ {
		many = append(many, sim.Time((200+sim.Duration(i))*ms))
	}
	got = rungSchedule(buildEnd, end, many)
	if len(got) > maxCheckpoints || got[0] != buildEnd || got[len(got)-1] != sim.Time(396*ms) {
		t.Fatalf("long list: got %v, want ≤%d rungs from the build boundary to the hot moment", got, maxCheckpoints)
	}
}

// TestCheckpointTreeEquivalence is the tree analogue of
// TestSnapshotMatchesFullReplay: with Explain on, the minimization probes
// and the instrumented re-execution run through the checkpoint tree
// (mid-plan rungs), and every bucket's minimal plan and causal explanation
// must be byte-identical to the full-replay pass.
func TestCheckpointTreeEquivalence(t *testing.T) {
	snapshotEquivalence(t, Config{MaxExecutions: 25, Collect: true, KeepGoing: true, Explain: true})
}

// TestSnapshotFallbacksZeroOnCassandra pins the fallback-visibility fix:
// the cassandra-operator targets are snapshotable now, so a snapshot-on
// campaign must report NO diagnosable fallbacks (the stats pointer stays
// nil, keeping artifacts byte-identical to snapshot-off).
func TestSnapshotFallbacksZeroOnCassandra(t *testing.T) {
	targets := []core.Target{workload.TargetCass398()}
	if !testing.Short() {
		targets = append(targets, workload.TargetCass400(), workload.TargetCass402())
	}
	for _, target := range targets {
		target := target
		t.Run(target.Name, func(t *testing.T) {
			cfg := Config{Workers: 2, MaxExecutions: 25, Collect: true, KeepGoing: true, Snapshot: true}
			res := New(cfg).Run(target, core.NewPlanner())
			if res.Stats.SnapshotFallbacks != nil {
				t.Fatalf("snapshot fallbacks on a snapshotable target: %+v", *res.Stats.SnapshotFallbacks)
			}
		})
	}
}

// TestSnapshotGuidedAndLearning covers the remaining engine modes:
// coverage-guided scheduling and the learning phase (prune + ranked) must
// both be byte-equivalent under forking. The cass-op-400 row is the guided
// search a wrong fork used to steer: at world seed 4060 it detected at
// execution 14 forked and 4 replayed.
func TestSnapshotGuidedAndLearning(t *testing.T) {
	k8s, cass := workload.Target56261(), workload.TargetCass400()
	rows := []struct {
		target core.Target
		cfg    Config
	}{
		{k8s, Config{Workers: 2, Guided: true, MaxExecutions: 30, Collect: true}},
		{k8s, Config{Workers: 2, MaxExecutions: 30, Collect: true, Prune: true, Ranked: true, KeepGoing: true}},
		{k8s, Config{Workers: 2, Seeds: []int64{1, 2}, MaxExecutions: 15, Collect: true}},
		{cass, Config{Workers: 1, Guided: true, Seeds: []int64{4060}, MaxExecutions: 30, Collect: true}},
	}
	for _, row := range rows {
		off, on := runBoth(t, row.target, func() core.Strategy { return core.NewPlanner() }, row.cfg)
		if !off.Detected {
			t.Fatalf("%s: full replay detects nothing: the row is vacuous", row.target.Name)
		}
		cfgOff, cfgOn := row.cfg, row.cfg
		cfgOff.Snapshot, cfgOn.Snapshot = false, true
		assertEquivalent(t, off, on, cfgOff, cfgOn)
	}
}
