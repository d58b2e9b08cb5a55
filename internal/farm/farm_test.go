package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// directRun executes one cell the single-process way, under exactly the
// config a worker would reconstruct.
func directRun(t *testing.T, spec TaskSpec) campaign.Result {
	t.Helper()
	res, err := RunTask(spec, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return res
}

// farmRun executes the cell across n in-process workers and returns the
// merged results in matrix order.
func farmRun(t *testing.T, targets, strategies []string, base TaskSpec, n int) []campaign.Result {
	t.Helper()
	tasks := Plan(targets, strategies, base)
	results, _ := supervisedRun(t, inProcSupervisor(n), tasks)
	merged, incomplete := Collate(results)
	if len(incomplete) > 0 {
		t.Fatalf("incomplete cells: %v", incomplete)
	}
	return merged
}

// artifactBytes is the byte-identity probe: the canonicalized artifact,
// marshaled. Byte comparison (not DeepEqual) is deliberate — it is
// exactly what the CI equivalence smoke compares, and it sidesteps
// nil-vs-empty slice differences that JSON round-trips erase.
func artifactBytes(t *testing.T, res campaign.Result, cfg campaign.Config) []byte {
	t.Helper()
	art := campaign.CanonicalizeArtifact(campaign.BuildArtifact(res, cfg))
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatalf("marshal artifact: %v", err)
	}
	return data
}

func ndjsonBytes(t *testing.T, res campaign.Result, cfg campaign.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campaign.WriteNDJSON(&buf, res, cfg); err != nil {
		t.Fatalf("write ndjson: %v", err)
	}
	return buf.Bytes()
}

// TestFarmByteIdentity is the tentpole invariant: for every target, a
// farmed multi-seed campaign merged from per-seed shards produces
// byte-identical canonicalized artifacts and telemetry streams to the
// single-process engine, at 1, 2, and 3 workers.
func TestFarmByteIdentity(t *testing.T) {
	base := TaskSpec{
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 30,
		Parallel:      2,
	}
	for _, target := range AllTargetNames() {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			spec := base
			spec.Target = target
			direct := directRun(t, spec)
			cfg := spec.Config()
			wantArt := artifactBytes(t, direct, cfg)
			wantND := ndjsonBytes(t, direct, cfg)
			for _, workers := range []int{1, 2, 3} {
				merged := farmRun(t, []string{target}, []string{"partial-history"}, spec, workers)
				if len(merged) != 1 {
					t.Fatalf("workers=%d: got %d merged cells, want 1", workers, len(merged))
				}
				if got := artifactBytes(t, merged[0], cfg); !bytes.Equal(got, wantArt) {
					t.Errorf("workers=%d: merged artifact differs from single-process run", workers)
				}
				if got := ndjsonBytes(t, merged[0], cfg); !bytes.Equal(got, wantND) {
					t.Errorf("workers=%d: merged telemetry differs from single-process run", workers)
				}
			}
		})
	}
}

// TestFarmByteIdentityGuidedExplain covers the composed modes: guided
// scheduling (deterministic per in-process pool width) plus the explain
// pass, farmed vs direct.
func TestFarmByteIdentityGuidedExplain(t *testing.T) {
	spec := TaskSpec{
		Target:        "k8s-59848",
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 25,
		Parallel:      2,
		Guided:        true,
		Explain:       true,
	}
	direct := directRun(t, spec)
	cfg := spec.Config()
	wantArt := artifactBytes(t, direct, cfg)
	wantND := ndjsonBytes(t, direct, cfg)
	for _, workers := range []int{2, 3} {
		merged := farmRun(t, []string{spec.Target}, []string{spec.Strategy}, spec, workers)
		if got := artifactBytes(t, merged[0], cfg); !bytes.Equal(got, wantArt) {
			t.Errorf("workers=%d: guided+explain artifact differs", workers)
		}
		if got := ndjsonBytes(t, merged[0], cfg); !bytes.Equal(got, wantND) {
			t.Errorf("workers=%d: guided+explain telemetry differs", workers)
		}
	}
}

// TestFarmLearningStaysWhole: learning campaigns (cross-seed bucket
// affinity) must not be seed-sharded — they run as one task and pass
// through the merge untouched, still byte-identical to direct.
func TestFarmLearningStaysWhole(t *testing.T) {
	spec := TaskSpec{
		Target:        "cass-op-398",
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 25,
		Parallel:      2,
		Prune:         true,
		Ranked:        true,
	}
	tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
	if len(tasks) != 1 {
		t.Fatalf("learning cell sharded into %d tasks, want 1", len(tasks))
	}
	if !reflect.DeepEqual(tasks[0].Seeds, spec.Seeds) {
		t.Fatalf("learning task seeds = %v, want full sweep %v", tasks[0].Seeds, spec.Seeds)
	}
	direct := directRun(t, spec)
	cfg := spec.Config()
	merged := farmRun(t, []string{spec.Target}, []string{spec.Strategy}, spec, 2)
	if !bytes.Equal(artifactBytes(t, merged[0], cfg), artifactBytes(t, direct, cfg)) {
		t.Error("learning cell artifact differs from single-process run")
	}
}

func TestPlanShardsPerSeed(t *testing.T) {
	base := TaskSpec{Seeds: []int64{1, 2, 3}, MaxExecutions: 10}
	tasks := Plan([]string{"a", "b"}, []string{"x"}, base)
	if len(tasks) != 6 {
		t.Fatalf("got %d tasks, want 6", len(tasks))
	}
	for i, task := range tasks {
		if task.ID != i {
			t.Errorf("task %d has ID %d; IDs must be dense", i, task.ID)
		}
		if len(task.Seeds) != 1 {
			t.Errorf("task %d carries %d seeds, want 1", i, len(task.Seeds))
		}
	}
	// Cell-major order: all of a/x's seeds before any of b/x's.
	if tasks[0].Target != "a" || tasks[2].Target != "a" || tasks[3].Target != "b" {
		t.Errorf("tasks not cell-major: %+v", tasks)
	}
	// Empty seed list normalizes to the engine default {1}.
	one := Plan([]string{"a"}, []string{"x"}, TaskSpec{})
	if len(one) != 1 || !reflect.DeepEqual(one[0].Seeds, []int64{1}) {
		t.Errorf("empty seeds: got %+v, want one task with seeds [1]", one)
	}
}

// TestMergeCellSynthetic pins the merge rules on hand-built parts, folded
// the way Collate folds a cell's shards: bucket base selection, count
// summing, stat sums (snapshot fallbacks per cause), and the coverage
// recount.
func TestMergeCellSynthetic(t *testing.T) {
	partA := campaign.Result{
		Target: "tgt", Strategy: "str",
		Seeds: []campaign.SeedResult{{Seed: 1}},
		Buckets: []campaign.FailureBucket{
			{Signature: "aa", Oracles: []string{"o1"}, Count: 2, ExampleSeed: 1, Detected: true, MinimalPlan: "min-a"},
		},
		Outcomes: []campaign.PlanOutcome{
			{Seed: 1, Index: -1, Class: "nop", Signature: "s1"},
			{Seed: 1, Index: 0, Class: "crash", Signature: "s2"},
		},
		Stats: campaign.Stats{Seeds: 1, Detections: 1, ViolatingExecutions: 2, FailedExecutions: 1,
			SnapshotFallbacks: &campaign.SnapshotFallbacks{StrictPast: 2}},
	}
	partB := campaign.Result{
		Target: "tgt", Strategy: "str",
		Seeds: []campaign.SeedResult{{Seed: 2}},
		Buckets: []campaign.FailureBucket{
			// Same signature seen under the later seed: its example and
			// minimal plan must lose to partA's, its count must add.
			{Signature: "aa", Oracles: []string{"o1"}, Count: 3, ExampleSeed: 2, Detected: true, MinimalPlan: "min-b"},
			{Signature: "bb", Oracles: []string{"o2"}, Count: 1, ExampleSeed: 2},
		},
		Outcomes: []campaign.PlanOutcome{
			{Seed: 2, Index: -1, Class: "nop", Signature: "s1"},
			{Seed: 2, Index: 0, Class: "stale", Signature: "s3"},
		},
		Stats: campaign.Stats{Seeds: 1, Detections: 2, ViolatingExecutions: 1, HungExecutions: 1,
			SnapshotFallbacks: &campaign.SnapshotFallbacks{StrictPast: 1, Watchdog: 3}},
	}
	// A healthy third shard: no fallbacks, nothing new.
	partC := campaign.Result{
		Target: "tgt", Strategy: "str",
		Seeds: []campaign.SeedResult{{Seed: 3}},
		Stats: campaign.Stats{Seeds: 1},
	}
	partA.Seeds[0].Campaign.Executions = 5
	partB.Seeds[0].Campaign.Executions = 7
	partB.Seeds[0].Campaign.Detected = true
	partB.Detected = true
	partB.DetectedSeed = 2

	var m campaign.Result
	for _, part := range []campaign.Result{partA, partB, partC} {
		m = campaign.Merge(m, part)
	}
	if !m.Detected || m.DetectedSeed != 2 {
		t.Errorf("Detected/DetectedSeed = %v/%d, want true/2", m.Detected, m.DetectedSeed)
	}
	// PrimaryCampaign: seed 2 detects after seed 1 spent 5 executions.
	if m.Campaign.Executions != 12 {
		t.Errorf("Campaign.Executions = %d, want 12 (5 spent + 7)", m.Campaign.Executions)
	}
	if len(m.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(m.Buckets))
	}
	aa := m.Buckets[0]
	if aa.Signature != "aa" || aa.Count != 5 || aa.ExampleSeed != 1 || aa.MinimalPlan != "min-a" {
		t.Errorf("bucket aa merged wrong: %+v", aa)
	}
	if m.Stats.Seeds != 3 || m.Stats.Detections != 3 || m.Stats.ViolatingExecutions != 3 ||
		m.Stats.FailedExecutions != 1 || m.Stats.HungExecutions != 1 {
		t.Errorf("stat sums wrong: %+v", m.Stats)
	}
	// Fallbacks sum per cause; a shard's count must survive the merge.
	if fb := m.Stats.SnapshotFallbacks; fb == nil || *fb != (campaign.SnapshotFallbacks{StrictPast: 3, Watchdog: 3}) {
		t.Errorf("snapshot fallbacks = %+v, want strict_past 3 + watchdog 3", fb)
	}
	// ... and healthy shards merge to nil, so healthy bytes are unchanged.
	if fb := campaign.Merge(campaign.Merge(campaign.Result{}, partC), partC).Stats.SnapshotFallbacks; fb != nil {
		t.Errorf("healthy merge grew snapshot fallbacks: %+v", fb)
	}
	// Coverage recount: classes {nop,crash,stale}, sigs {s1,s2,s3}.
	if m.Stats.CoverageClasses != 3 || m.Stats.NovelSignatures != 3 {
		t.Errorf("coverage recount = %d classes / %d sigs, want 3/3", m.Stats.CoverageClasses, m.Stats.NovelSignatures)
	}
	if len(m.Outcomes) != 4 {
		t.Errorf("outcomes not concatenated: %d", len(m.Outcomes))
	}
}

// TestRecordStreaming: the per-execution records a worker streams are
// exactly the task result's collected outcomes, in order.
func TestRecordStreaming(t *testing.T) {
	spec := TaskSpec{
		Target: "k8s-56261", Strategy: "crashtuner",
		Seeds: []int64{1}, MaxExecutions: 15, Parallel: 2,
	}
	tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
	var mu sync.Mutex
	var streamed []campaign.PlanOutcome
	sup := inProcSupervisor(1)
	sup.OnRecord = func(_ TaskSpec, out campaign.PlanOutcome) {
		mu.Lock()
		streamed = append(streamed, out)
		mu.Unlock()
	}
	results, _ := supervisedRun(t, sup, tasks)
	res := results[0].Res
	if res == nil {
		t.Fatal("task did not complete")
	}
	if len(streamed) == 0 {
		t.Fatal("no records streamed")
	}
	// Streamed records match collected outcomes modulo wall time (the
	// record is built before the outcome lands in the result).
	if len(streamed) != len(res.Outcomes) {
		t.Fatalf("streamed %d records, result has %d outcomes", len(streamed), len(res.Outcomes))
	}
	for i := range streamed {
		a, b := streamed[i], res.Outcomes[i]
		a.WallMicros, b.WallMicros = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d differs:\nstreamed: %+v\nresult:   %+v", i, a, b)
		}
	}
}

// TestCoordinatorInterrupt: cancelling the context mid-run kills the
// fleet and returns partial-but-valid results with interrupted=true.
func TestCoordinatorInterrupt(t *testing.T) {
	base := TaskSpec{
		Strategy: "partial-history", Seeds: []int64{1, 2, 3, 4},
		MaxExecutions: 100, Parallel: 1,
	}
	tasks := Plan([]string{"k8s-59848", "cass-op-400"}, []string{"partial-history"}, base)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	sup := inProcSupervisor(1)
	sup.OnRecord = func(TaskSpec, campaign.PlanOutcome) {
		once.Do(cancel) // first streamed record pulls the plug
	}
	results, _, interrupted, err := RunSupervised(ctx, sup, tasks, nil)
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if !interrupted {
		t.Fatal("expected interrupted=true")
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	completed := 0
	for _, tr := range results {
		if tr.Res != nil {
			completed++
		}
	}
	if completed == len(tasks) {
		t.Error("every task completed despite the interrupt")
	}
	// Whatever did complete must still collate into valid cells.
	merged, incomplete := Collate(results)
	if len(merged)+len(incomplete) == 0 {
		t.Error("collate lost all cells")
	}
}

// TestCollateDropsIncompleteCells: a cell with a missing shard must not
// surface as a silently truncated campaign.
func TestCollateDropsIncompleteCells(t *testing.T) {
	mk := func(target string, seed int64, ok bool) TaskResult {
		tr := TaskResult{Spec: TaskSpec{Target: target, Strategy: "s", Seeds: []int64{seed}}}
		if ok {
			tr.Res = &campaign.Result{
				Target: target, Strategy: "s",
				Seeds: []campaign.SeedResult{{Seed: seed}},
			}
		}
		return tr
	}
	merged, incomplete := Collate([]TaskResult{
		mk("a", 1, true), mk("a", 2, true),
		mk("b", 1, true), mk("b", 2, false),
	})
	if len(merged) != 1 || merged[0].Target != "a" {
		t.Fatalf("merged = %+v, want just cell a", merged)
	}
	if len(incomplete) != 1 || incomplete[0].Target != "b" {
		t.Fatalf("incomplete = %+v, want just cell b", incomplete)
	}
}
