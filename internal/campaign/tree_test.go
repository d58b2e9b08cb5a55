package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
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

// checkForks runs probes through the tree, built at world seed seed, and
// asserts every forked execution agrees with its full replay — violations, detection and (when
// instrumented) coverage signature — that a probe which does not fork has
// no diagnosable cause, and that at least one probe (allFork: every probe)
// was really served by a fork.
func checkForks(t *testing.T, target core.Target, pt *planTree, seed int64, probes []core.Plan, instrument, allFork bool) {
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
		want, wantTr := runGuarded(target, q, seed, instrument, 0)
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
			checkForks(t, target, pt, seed, row.probes, row.instrument, false)
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
			checkForks(t, target, pt, seed, []core.Plan{sp}, true, true)
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

// rungAt names a fork's rung by its capture instant.
func rungAt(rg *rung) string {
	if rg == nil {
		return "no rung"
	}
	return rg.at.String()
}

// firstMatch returns the send time of the first reference delivery an
// occurrence gap plan's interceptor counts: the effect of the same plan
// acting on occurrence 1.
func firstMatch(t *testing.T, p core.Plan, ref *trace.Trace) sim.Time {
	t.Helper()
	gp, ok := p.(core.GapPlan)
	if !ok {
		t.Fatalf("%s is not a gap plan", p.Describe())
	}
	gp.Occurrence = 1
	at, _ := core.EarliestEffect(gp, ref)
	return at
}

// TestOccurrencePlansForkAtTheirOccurrence pins where an occurrence plan
// forks: its counter resumes at the rung, so a plan acting on its n-th
// matching delivery (n > 1) forks from a rung later than its first match,
// and the fork still agrees with its full replay. The tree is the one a
// five-plan sweep builds (hints from the plans its budget reaches).
func TestOccurrencePlansForkAtTheirOccurrence(t *testing.T) {
	const budget = 5
	targets := []core.Target{workload.Target59848(), workload.TargetCass398(), workload.TargetCass400(), workload.TargetCass402()}
	for _, target := range targets {
		for _, seed := range []int64{1, 2, 3} {
			target, seed := target, seed
			t.Run(fmt.Sprintf("%s/%d", target.Name, seed), func(t *testing.T) {
				ref, _ := core.ReferenceSeed(target, seed)
				plans := core.NewPlanner().Plans(target, ref)[:budget]
				pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectTimes(plans, ref))
				var probes []core.Plan
				for _, p := range plans {
					if n, ok := core.Occurrence(p); !ok || n <= 1 {
						continue
					}
					probes = append(probes, p)
					rg := pt.forkRung(p)
					if first := firstMatch(t, p, ref); rg == nil || rg.at <= first {
						t.Fatalf("%s forks from %s, not past its first match at %s", p.Describe(), rungAt(rg), first)
					}
				}
				if len(probes) == 0 {
					t.Fatal("no plan among the first five acts on a later occurrence: the row is vacuous")
				}
				checkForks(t, target, pt, seed, probes, true, true)
			})
		}
	}
}

// TestExplorerSchedulesForkInsideTheWindow pins the explorer's shape on the
// cass-op-398 witness bound (Drops:1, Delays:1, Start:4s) at world seed
// 1005: a tree hinted, as the explorer hints it, at 11 quantiles of the
// window's distinct delivery times serves every single- and two-decision schedule
// from a rung no earlier than Start − captureMargin, and every fork
// agrees with its full replay.
func TestExplorerSchedulesForkInsideTheWindow(t *testing.T) {
	target, seed := workload.TargetCass398(), int64(1005)
	start := sim.Time(4 * sim.Second)
	ref, _ := core.ReferenceSeed(target, seed)
	var decisions []core.Plan
	var times []sim.Time
	for _, d := range ref.Deliveries {
		if d.To == "admin" || d.Time < start {
			continue
		}
		if !slices.Contains(times, d.Time) {
			times = append(times, d.Time)
		}
		decisions = append(decisions,
			core.DropDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence},
			core.DelayDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence, Delay: 2 * sim.Second})
	}
	if len(decisions) < 4 {
		t.Fatalf("%d decisions past %s: the row is vacuous", len(decisions), start)
	}
	slices.Sort(times)
	hints := make([]sim.Time, 0, 11)
	for i := 0; i < 11; i++ {
		hints = append(hints, times[i*(len(times)-1)/10])
	}
	pt := NewForker(target, seed, ref, hints).pt
	var probes []core.Plan
	for i, d := range decisions {
		probes = append(probes, core.SequencePlan{Name: "explore", Plans: []core.Plan{d}})
		if i%2 == 0 && i+3 < len(decisions) {
			// A drop followed by a later delay, as the DFS composes them.
			probes = append(probes, core.SequencePlan{Name: "explore", Plans: []core.Plan{d, decisions[i+3]}})
		}
	}
	for _, q := range probes {
		if rg := pt.forkRung(q); rg == nil || rg.at < start.Add(-captureMargin) {
			t.Fatalf("%s forks from %s, before %s − captureMargin", q.ID(), rungAt(rg), start)
		}
	}
	checkForks(t, target, pt, seed, probes, true, true)
}

// TestBudgetedSweepPlacesRungsForReachablePlans pins the engine's hinting:
// a five-plan sweep's tree holds no rung past the latest effect among the
// five plans its budget reaches, and an unbudgeted sweep's tree (every
// plan hinted) does reach past it on the same world.
func TestBudgetedSweepPlacesRungsForReachablePlans(t *testing.T) {
	target, seed := workload.TargetCass400(), int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	order := make([]planRef, len(plans))
	for i, p := range plans {
		order[i] = planRef{plan: p, index: i}
	}
	const budget = 5
	var latest sim.Time
	for _, eff := range effectTimes(plans[:budget], ref) {
		if eff != core.NoEffect && eff > latest {
			latest = eff
		}
	}
	lastRung := func(cfg Config) sim.Time {
		pt := New(cfg).sweepTree(target, seed, ref, nil, order)
		if pt == nil {
			t.Fatal("no tree for a snapshotable target")
		}
		return pt.rungs[len(pt.rungs)-1].at
	}
	if got := lastRung(Config{Snapshot: true, MaxExecutions: budget}); got > latest {
		t.Fatalf("budgeted tree has a rung at %s, past the latest reachable effect %s", got, latest)
	}
	if got := lastRung(Config{Snapshot: true}); got <= latest {
		t.Fatalf("unbudgeted tree ends at %s: the budgeted row is vacuous", got)
	}
}

// TestForkPastOccurrenceIsStrictPast mirrors TestForkPastEffectIsStrictPast
// for occurrence-counted plans: forced to fork from a rung after the
// delivery it acts on, a plan the base does not share would resume with
// its count already past its occurrence and skip its drop silently — the
// fork is refused as a counted strict_past fallback. A delay the base
// shares, resumed past its occurrence, acted in the base run too: that
// fork runs and agrees with its full replay.
func TestForkPastOccurrenceIsStrictPast(t *testing.T) {
	target := workload.TargetCass400()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectTimes(plans, ref))
	if pt == nil || len(pt.rungs) < 2 {
		t.Fatal("tree needs at least two rungs")
	}
	last := &pt.rungs[len(pt.rungs)-1]
	var early core.Plan
	for _, p := range plans {
		if n, ok := core.Occurrence(p); ok && core.Seen(p, last.trace) >= n {
			early = p
			break
		}
	}
	if early == nil {
		t.Fatalf("no occurrence plan has acted by the last rung (%s)", last.at)
	}
	if rg := pt.forkRung(early); rg == nil || rg.at >= last.at {
		t.Fatalf("the divergence rule should pick a rung before the last one for %s", early.Describe())
	}
	exec, tr, ok, cause := pt.forkFrom(last, target, early, true, 0)
	if ok || cause != fallbackStrictPast {
		t.Fatalf("fork past %s: ok=%v cause=%d, want a strict_past fallback", early.Describe(), ok, cause)
	}
	if tr != nil || !reflect.DeepEqual(exec, core.Execution{}) {
		t.Fatalf("a refused fork must return no execution, got %+v", exec)
	}

	// The shared case: a base that delays one early delivery, and probes
	// that add a drop late in the run.
	var delay core.Plan
	var drops []core.Plan
	for _, d := range ref.Deliveries {
		if d.To == "admin" {
			continue
		}
		if delay == nil {
			delay = core.DelayDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence, Delay: 50 * sim.Millisecond}
		} else if d.Time > ref.Deliveries[0].Time.Add(sim.Second) && len(drops) < 3 {
			drops = append(drops, core.DropDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence})
		}
	}
	base := core.SequencePlan{Name: "explore", Plans: []core.Plan{delay}}
	var probes []core.Plan
	for _, dp := range drops {
		probes = append(probes, core.SequencePlan{Name: "explore", Plans: []core.Plan{delay, dp}})
	}
	bt := buildPlanTree(target, base, seed, ref, effectTimes(drops, ref))
	if bt == nil || bt.baseDrops+bt.baseDups != 0 {
		t.Fatal("a delay-only base should build a tree that lost no push")
	}
	for _, q := range probes {
		rg := bt.forkRung(q)
		if rg == nil || core.Seen(delay, rg.trace) == 0 {
			t.Fatalf("%s should fork past the shared delay", q.ID())
		}
	}
	checkForks(t, target, bt, seed, probes, true, true)
}

// TestDroppedPushesDisqualifyOccurrencePlans pins the dropped-push rule on
// the engine path: the k8s-56261 reference run loses watch pushes, so its
// Deliveries under-report what an occurrence-counting interceptor sees and
// neither an occurrence bound nor a resumed count is trustworthy.
// Occurrence-counted plans are then served by full replay — routine, not a
// counted fallback — time-based plans still fork, and the campaign stays
// byte-identical to Snapshot off.
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

// TestLostOrDuplicatedPushesDisqualifyOccurrencePlans pins the lost- and
// duplicated-push rule on plan bases, where a resumed count is at stake.
// A crashed receiver drops a push its send-side interceptor has counted;
// a duplicating link records a push twice that every counter counts once.
// Either way the base trace's count at a rung is off, so an occurrence
// plan layered on such a base has no eligible rung and runs as a full
// replay (forked, each probe below diverges from its replay), while a
// time-based one still forks. cass-op-400's operator receives its pushes
// in bursts at 0.5, 4 and 8 s: each base disturbs the second burst, each
// probe acts in the third.
func TestLostOrDuplicatedPushesDisqualifyOccurrencePlans(t *testing.T) {
	target := workload.TargetCass400()
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	victim := sim.NodeID("cassandra-operator")
	var lastUpdate core.Plan // the last cluster update of the third burst
	for _, d := range ref.Deliveries {
		if d.To == victim && d.Kind == "cassandraclusters" && d.EventType == "MODIFIED" && d.Time > sim.Time(6*sim.Second) {
			lastUpdate = core.DropDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence}
		}
	}
	if lastUpdate == nil {
		t.Fatal("no cluster update to the operator after 6s")
	}
	crashLater := core.CrashPlan{Component: victim, At: sim.Time(6 * sim.Second), RestartDelay: 100 * sim.Millisecond}
	rows := []struct {
		name  string
		base  core.Plan
		occ   core.Plan
		drops bool
	}{
		{"receiver down", core.CrashPlan{Component: victim, At: sim.Time(4005 * sim.Millisecond), RestartDelay: 10 * sim.Millisecond},
			core.GapPlan{Victim: victim, Kind: "cassandraclusters", Name: "cass", Occurrence: 5}, true},
		{"duplicating link", core.FlakyLinkPlan{A: "api-1", B: victim, DupPercent: 100,
			From: sim.Time(3 * sim.Second), Until: sim.Time(5 * sim.Second)}, lastUpdate, false},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			occ := core.SequencePlan{Name: "lost", Plans: []core.Plan{row.base, row.occ}}
			timed := core.SequencePlan{Name: "lost", Plans: []core.Plan{row.base, crashLater}}
			pt := buildPlanTree(target, row.base, seed, ref, []sim.Time{sim.Time(6 * sim.Second)})
			if pt == nil || (pt.baseDrops > 0) != row.drops || (pt.baseDups > 0) == row.drops {
				t.Fatalf("the base should lose (%v) or duplicate (%v) pushes (tree %v)", row.drops, !row.drops, pt != nil)
			}
			if rg := pt.forkRung(occ); rg != nil {
				t.Fatalf("%s forks from %s although the base lost %d and duplicated %d pushes", occ.ID(), rg.at, pt.baseDrops, pt.baseDups)
			}
			if _, _, ok, cause := pt.run(target, occ, false, 0); ok || cause != fallbackNone {
				t.Fatalf("%s: ok=%v cause=%d, want a routine full replay", occ.ID(), ok, cause)
			}
			checkForks(t, target, pt, seed, []core.Plan{timed}, true, true)
		})
	}
}

// TestBusyBuildBoundaryDisqualifiesOccurrencePlans covers the third
// clause of countsExact: a push in flight at the Build boundary is
// recorded when it lands but was never seen by a send-side interceptor,
// installed after Build. Here Build returns 4 ms after creating a pod,
// with its ADDED pushes to both kubelets in flight; a gap plan on the
// pod's second push to kubelet-k1 counts only the MODIFIED one and never
// drops, while a count resumed from the trace would make that MODIFIED
// its second match. Such a plan has no eligible rung; a crash still forks.
func TestBusyBuildBoundaryDisqualifiesOccurrencePlans(t *testing.T) {
	base := workload.Target59848()
	target := base
	target.Build = func(seed int64) *infra.Cluster {
		c := base.Build(seed)
		c.Admin.CreatePod("early", "k1", "v1", nil)
		c.RunFor(4 * sim.Millisecond)
		return c
	}
	seed := int64(1)
	ref, _ := core.ReferenceSeed(target, seed)
	gap := core.GapPlan{Victim: "kubelet-k1", Kind: cluster.KindPod, Name: "early", Occurrence: 2}
	crash := core.CrashPlan{Component: "kubelet-k1", At: sim.Time(2 * sim.Second), RestartDelay: 100 * sim.Millisecond}
	pt := buildPlanTree(target, core.NopPlan{}, seed, ref, effectTimes([]core.Plan{gap, crash}, ref))
	if pt == nil || pt.rungs[0].at == pt.buildEnd {
		t.Fatalf("the Build boundary should be busy (tree %v)", pt != nil)
	}
	if core.Seen(gap, pt.rungs[0].trace) == 0 {
		t.Fatal("no push about the pod landed before the first rung: the row is vacuous")
	}
	if rg := pt.forkRung(gap); rg != nil {
		t.Fatalf("%s forks from %s although pushes were in flight at the Build boundary", gap.Describe(), rg.at)
	}
	if _, _, ok, cause := pt.run(target, gap, false, 0); ok || cause != fallbackNone {
		t.Fatalf("%s: ok=%v cause=%d, want a routine full replay", gap.Describe(), ok, cause)
	}
	checkForks(t, target, pt, seed, []core.Plan{crash}, true, true)
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
	if want := at(100*ms, 270*ms, 470*ms); !reflect.DeepEqual(got, want) {
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
	if len(got) > maxCheckpoints || got[0] != buildEnd || got[len(got)-1] != sim.Time(370*ms) {
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
