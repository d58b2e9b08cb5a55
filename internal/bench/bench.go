// Package bench computes the deterministic results behind the E5, E6 and
// E10 benchmark tables (bench_test.go at the repo root) and serializes
// them as committed artifacts — BENCH_E5.json, BENCH_E6.json and
// BENCH_E10.json. The benchmarks regenerate the artifacts on every run;
// cmd/benchcheck recomputes them from scratch and fails when the
// committed files disagree, so silent drift in the headline numbers (a
// planner change shifting executions-to-detection, a pruning change
// deferring different plans, a snapshot-layer change breaking on/off
// byte-identity) breaks a check instead of rotting in the repo.
//
// Only virtual-time results live here: detections, execution counts, plan
// counts, pruning decisions. Wall-clock measurements are incidental to
// the benchmarks and never enter the artifacts, so the files are
// byte-stable across machines (the same canonicalization discipline as
// internal/campaign's telemetry stream).
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/apiserver"
	"repro/internal/baselines"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/workload"
)

// SchemaE5, SchemaE6 and SchemaE10 version the artifact formats;
// benchcheck refuses files with an unknown schema instead of mis-diffing
// them.
const (
	SchemaE5  = "bench-e5/v1"
	SchemaE6  = "bench-e6/v1"
	SchemaE10 = "bench-e10/v1"
	SchemaE11 = "bench-e11/v1"
	SchemaE12 = "bench-e12/v1"
)

// MaxExecE5 through MaxExecE12 are the committed artifacts' execution
// budgets: the root package's benchmarks compute each artifact at its
// budget and benchcheck -write regenerates it there. Each file records its
// budget, and a check recomputes at the recorded one.
const (
	MaxExecE5  = 400
	MaxExecE6  = 800
	MaxExecE10 = 200
	MaxExecE11 = 200
	MaxExecE12 = 6
)

// Cell is one (target, strategy) campaign's deterministic outcome.
type Cell struct {
	Target     string `json:"target"`
	Oracle     string `json:"oracle"`
	Strategy   string `json:"strategy"`
	Detected   bool   `json:"detected"`
	Executions int    `json:"executions"`
	PlansTotal int    `json:"plans_total"`
}

// LearnedCell is one target's pruned+ranked planner campaign: the same
// deterministic outcome plus the learning phase's decision counters.
type LearnedCell struct {
	Target            string `json:"target"`
	Detected          bool   `json:"detected"`
	Executions        int    `json:"executions"`
	PlansTotal        int    `json:"plans_total"`
	PlansPruned       int    `json:"plans_pruned"`
	PlansDeduped      int    `json:"plans_deduped"`
	UnsoundDetections int    `json:"pruning_unsound_detections"`
}

// E5 is the Section 7 bug-finding matrix artifact.
type E5 struct {
	Schema        string        `json:"schema"`
	MaxExecutions int           `json:"max_executions"`
	Cells         []Cell        `json:"cells"`
	Learned       []LearnedCell `json:"learned"`
}

// E6Row is one target's planner-efficiency comparison (§6.1).
type E6Row struct {
	Target   string      `json:"target"`
	Guided   Cell        `json:"guided"`
	Learned  LearnedCell `json:"learned"`
	Unguided Cell        `json:"unguided"`
	Random   Cell        `json:"random"`
}

// E6 is the planner-efficiency artifact.
type E6 struct {
	Schema        string  `json:"schema"`
	MaxExecutions int     `json:"max_executions"`
	Rows          []E6Row `json:"rows"`
}

// e5Strategies is the strategy column order of the E5 matrix.
func e5Strategies(maxExec int) []core.Strategy {
	return []core.Strategy{
		core.NewPlanner(),
		baselines.CrashTuner{},
		baselines.CoFI{},
		baselines.Random{Seed: 7, N: maxExec},
	}
}

func cellOf(t core.Target, strategy string, cr core.CampaignResult, detected bool) Cell {
	return Cell{
		Target:     t.Name,
		Oracle:     t.Bug,
		Strategy:   strategy,
		Detected:   detected,
		Executions: cr.Executions,
		PlansTotal: cr.PlansTotal,
	}
}

func learnedOf(t core.Target, res campaign.Result) LearnedCell {
	return LearnedCell{
		Target:            t.Name,
		Detected:          res.Detected,
		Executions:        res.Campaign.Executions,
		PlansTotal:        res.Campaign.PlansTotal,
		PlansPruned:       res.Stats.PlansPruned,
		PlansDeduped:      res.Stats.PlansDeduped,
		UnsoundDetections: res.Stats.PruningUnsoundDetections,
	}
}

// ComputeE5 runs the Section 7 matrix: every target under every strategy
// column plus the pruned+ranked planner column. Campaigns execute through
// the parallel engine with prefix checkpointing enabled — unguided
// results are the same at any worker count, and snapshot forking is
// artifact-invisible by construction, so the artifact is a pure function
// of maxExec.
func ComputeE5(maxExec, workers int) E5 {
	targets := workload.AllTargets()
	eng := campaign.New(campaign.Config{Workers: workers, MaxExecutions: maxExec, Snapshot: true})
	engLearned := campaign.New(campaign.Config{Workers: workers, MaxExecutions: maxExec, Prune: true, Ranked: true, Snapshot: true})

	art := E5{Schema: SchemaE5, MaxExecutions: maxExec}
	for _, t := range targets {
		for _, s := range e5Strategies(maxExec) {
			res := eng.Run(t, s)
			art.Cells = append(art.Cells, cellOf(t, s.Name(), res.Campaign, res.Detected))
		}
		art.Learned = append(art.Learned, learnedOf(t, engLearned.Run(t, core.NewPlanner())))
	}
	return art
}

// unguidedPlanner is the E6 baseline: the paper's planner with its causal
// guidance knobs switched off.
func unguidedPlanner() *core.Planner {
	p := core.NewPlanner()
	p.CausalFilter = false
	p.CausalRanking = false
	p.PrioritizeDeletionPaths = false
	return p
}

// ComputeE6 runs the §6.1 planner-efficiency comparison on the three E6
// targets: guided planner, pruned+ranked planner, unguided planner, and
// the random baseline.
func ComputeE6(maxExec, workers int) E6 {
	targets := []core.Target{workload.Target56261(), workload.TargetCass398(), workload.TargetCass400()}
	eng := campaign.New(campaign.Config{Workers: workers, MaxExecutions: maxExec, Snapshot: true})
	engLearned := campaign.New(campaign.Config{Workers: workers, MaxExecutions: maxExec, Prune: true, Ranked: true, Snapshot: true})

	art := E6{Schema: SchemaE6, MaxExecutions: maxExec}
	for _, t := range targets {
		g := eng.Run(t, core.NewPlanner())
		l := engLearned.Run(t, core.NewPlanner())
		u := eng.Run(t, unguidedPlanner())
		r := eng.Run(t, baselines.Random{Seed: 11, N: maxExec})
		art.Rows = append(art.Rows, E6Row{
			Target:   t.Name,
			Guided:   cellOf(t, "partial-history", g.Campaign, g.Detected),
			Learned:  learnedOf(t, l),
			Unguided: cellOf(t, "partial-history-unguided", u.Campaign, u.Detected),
			Random:   cellOf(t, "random", r.Campaign, r.Detected),
		})
	}
	return art
}

// E10Row is one target's snapshot-substrate audit: the campaign outcome
// under checkpoint-tree forking plus the equivalence evidence — fallback
// count (zero on a healthy substrate), and byte-identity of the
// canonicalized campaign.json and raw NDJSON telemetry between the
// snapshot-on and snapshot-off runs of the same campaign.
type E10Row struct {
	Target       string `json:"target"`
	Oracle       string `json:"oracle"`
	Snapshotable bool   `json:"snapshotable"`
	Detected     bool   `json:"detected"`
	Executions   int    `json:"executions"`
	PlansTotal   int    `json:"plans_total"`
	// SnapshotFallbacks totals the diagnosable fork-to-full-replay
	// fallbacks (unconditional, so the gate can assert == 0).
	SnapshotFallbacks int `json:"snapshot_fallbacks"`
	// ArtifactIdentical / TelemetryIdentical record whether the snapshot-on
	// campaign produced byte-identical canonicalized campaign.json and raw
	// NDJSON to the snapshot-off campaign. Committed true, so any future
	// divergence is drift benchcheck refuses.
	ArtifactIdentical  bool `json:"artifact_identical"`
	TelemetryIdentical bool `json:"telemetry_identical"`
}

// E10 is the snapshot-substrate equivalence artifact: all five targets
// forked from checkpoint trees, with fallback visibility and on/off
// byte-identity pinned. The wall-clock side of E10 (executions/sec)
// lives in BenchmarkE10 and never enters the artifact.
type E10 struct {
	Schema        string   `json:"schema"`
	MaxExecutions int      `json:"max_executions"`
	Rows          []E10Row `json:"rows"`
}

// ComputeE10 runs every target twice — full replay and checkpoint-tree
// forking — and records the deterministic equivalence evidence. KeepGoing
// pins a fixed execution count so both modes run the identical plan set.
func ComputeE10(maxExec, workers int) E10 {
	art := E10{Schema: SchemaE10, MaxExecutions: maxExec}
	for _, t := range workload.AllTargets() {
		cfgOff := campaign.Config{Workers: workers, MaxExecutions: maxExec, KeepGoing: true, Collect: true}
		cfgOn := cfgOff
		cfgOn.Snapshot = true
		off := campaign.New(cfgOff).Run(t, core.NewPlanner())
		on := campaign.New(cfgOn).Run(t, core.NewPlanner())

		artOff := mustCanonicalJSON(campaign.BuildArtifact(off, cfgOff))
		artOn := mustCanonicalJSON(campaign.BuildArtifact(on, cfgOn))
		var ndOff, ndOn bytes.Buffer
		mustNDJSON(&ndOff, off, cfgOff)
		mustNDJSON(&ndOn, on, cfgOn)

		fallbacks := 0
		if f := on.Stats.SnapshotFallbacks; f != nil {
			fallbacks = f.Unsnapshotable + f.StrictPast + f.RestoreError + f.Watchdog
		}
		art.Rows = append(art.Rows, E10Row{
			Target:             t.Name,
			Oracle:             t.Bug,
			Snapshotable:       t.Build(1).Snapshotable(),
			Detected:           on.Detected,
			Executions:         on.Campaign.Executions,
			PlansTotal:         on.Campaign.PlansTotal,
			SnapshotFallbacks:  fallbacks,
			ArtifactIdentical:  bytes.Equal(artOff, artOn),
			TelemetryIdentical: bytes.Equal(ndOff.Bytes(), ndOn.Bytes()),
		})
	}
	return art
}

// E11Row is one target's exhaustive-vs-sampled comparison: the bounded
// systematic explorer against the guided planner campaign and the random
// baseline, all measured in executions-to-first-detection (virtual-time
// determinism means execution counts ARE the tool's time axis; wall-clock
// never enters the artifact).
type E11Row struct {
	Target string `json:"target"`
	Oracle string `json:"oracle"`
	// Exhaustive exploration under the standard E11 bound (one drop plus
	// one delay per schedule, POR on). ExploreOutcome is "violation",
	// "certificate", or "budget-exhausted"; ExploreExecutions counts
	// schedules executed until the stop; the space/collapse counters
	// record how much the reduction bought.
	ExploreOutcome     string `json:"explore_outcome"`
	ExploreExecutions  uint64 `json:"explore_executions"`
	ExploreWitness     string `json:"explore_witness,omitempty"`
	ScheduleSpace      uint64 `json:"schedule_space"`
	SchedulesCollapsed uint64 `json:"schedules_collapsed"`
	// Guided / Random are the sampling columns under the same budget.
	Guided Cell `json:"guided"`
	Random Cell `json:"random"`
}

// E11 is the exhaustive-mode artifact: ROADMAP item 6's evidence that a
// bounded systematic sweep either finds the seeded bugs within small
// schedule counts or certifies their absence within the bound.
type E11 struct {
	Schema        string   `json:"schema"`
	MaxExecutions int      `json:"max_executions"`
	BoundDrops    int      `json:"bound_drops"`
	BoundDelays   int      `json:"bound_delays"`
	Rows          []E11Row `json:"rows"`
}

// e11MaxSchedules bounds one exploration; large enough that every target
// either detects or certifies (a budget abort would make the row
// meaningless).
const e11MaxSchedules = 20000

// e11GuidedWidth is the engine width the committed BENCH_E11.json was
// generated at. Guided scheduling is batch-synchronous in rounds of
// Workers (campaign/engine.go): which plans have run when a detection
// stops the campaign depends on the round size, so the guided column is a
// function of (maxExec, width) and the width is part of the artifact's
// definition, not the caller's to choose.
const e11GuidedWidth = 4

// e11Engines returns E11's two sampling engines. Only the random one is
// sized by the caller: unguided results are the same at any width.
func e11Engines(maxExec, workers int) (guided, random *campaign.Engine) {
	guided = campaign.New(campaign.Config{Workers: e11GuidedWidth, MaxExecutions: maxExec, Guided: true, Snapshot: true})
	random = campaign.New(campaign.Config{Workers: workers, MaxExecutions: maxExec, Snapshot: true})
	return guided, random
}

// ComputeE11 runs the exhaustive-vs-sampled comparison on all five
// seeded bugs. The explorer is serial and deterministic, the random
// column is width-independent and the guided column runs at
// e11GuidedWidth whatever workers is, so the artifact is a pure function
// of maxExec.
func ComputeE11(maxExec, workers int) E11 {
	art := E11{Schema: SchemaE11, MaxExecutions: maxExec, BoundDrops: 1, BoundDelays: 1}
	eng, engRand := e11Engines(maxExec, workers)
	for _, t := range workload.AllTargets() {
		res := explore.Run(explore.Config{
			Target: t, Seed: 1,
			Bounds:   explore.Bounds{Drops: 1, Delays: 1, MaxSchedules: e11MaxSchedules},
			POR:      true,
			Snapshot: true,
		})
		g := eng.Run(t, core.NewPlanner())
		r := engRand.Run(t, baselines.Random{Seed: 11, N: maxExec})
		row := E11Row{
			Target:             t.Name,
			Oracle:             t.Bug,
			ExploreOutcome:     res.Outcome,
			ExploreExecutions:  res.Stats.SchedulesExecuted,
			ScheduleSpace:      res.Stats.ScheduleSpace,
			SchedulesCollapsed: res.Stats.SchedulesCollapsed,
			Guided:             cellOf(t, "partial-history", g.Campaign, g.Detected),
			Random:             cellOf(t, "random", r.Campaign, r.Detected),
		}
		if res.Witness != nil {
			row.ExploreWitness = res.Witness.MinimalID
		}
		art.Rows = append(art.Rows, row)
	}
	return art
}

func ReadE11(path string) (E11, error) {
	var art E11
	if err := readJSON(path, &art); err != nil {
		return E11{}, err
	}
	if art.Schema != SchemaE11 {
		return E11{}, fmt.Errorf("bench: %s: schema %q, want %q", path, art.Schema, SchemaE11)
	}
	return art, nil
}

// E12Row is one scale point's serving-cost audit: the serving counters
// of a single unperturbed rack-drain execution under the indexed and the
// legacy scan-everything paths. Relay sub-visits grow with cluster size
// on the unindexed path and stay proportional to relayed events on the
// indexed one — the committed rows pin that shape. The counters are
// virtual-time deterministic (pure observability, never snapshotted), so
// the artifact is byte-stable across machines.
type E12Row struct {
	Nodes  int    `json:"nodes"`
	Target string `json:"target"`
	// RelayEvents / RelaySends are path-independent (asserted by
	// BehaviourIdentical); the Indexed/Unindexed pairs are the cost axes.
	RelayEvents        uint64 `json:"relay_events"`
	RelaySends         uint64 `json:"relay_sends"`
	SubVisitsIndexed   uint64 `json:"relay_sub_visits_indexed"`
	SubVisitsUnindexed uint64 `json:"relay_sub_visits_unindexed"`
	ListKeysIndexed    uint64 `json:"list_keys_scanned_indexed"`
	ListKeysUnindexed  uint64 `json:"list_keys_scanned_unindexed"`
	// BehaviourIdentical records that both paths relayed the same events,
	// pushed the same number of watch messages, and answered the same
	// lists: the indexes are accelerations, not behaviour changes.
	BehaviourIdentical bool `json:"behaviour_identical"`
}

// E12 is the serving-path scaling artifact: per-scale-point cost rows
// plus campaign byte-identity between the indexed and unindexed serving
// paths at the 100-node point. The wall-clock side (executions/sec)
// lives in BenchmarkE12 and never enters the artifact.
type E12 struct {
	Schema        string   `json:"schema"`
	MaxExecutions int      `json:"max_executions"`
	Rows          []E12Row `json:"rows"`
	// The identity columns re-run the 100-node rack-drain campaign with
	// every apiserver pinned to the unindexed path and byte-compare the
	// canonicalized campaign.json and raw NDJSON telemetry against the
	// indexed run. Committed true: an index that leaks into behaviour is
	// drift benchcheck refuses.
	IdentityTarget     string `json:"identity_target"`
	IdentityDetected   bool   `json:"identity_detected"`
	IdentityExecutions int    `json:"identity_executions"`
	ArtifactIdentical  bool   `json:"artifact_identical"`
	TelemetryIdentical bool   `json:"telemetry_identical"`
}

// ComputeE12 measures the serving paths at 10, 100 and 500 nodes and
// runs the 100-node identity campaigns. Deterministic at any worker
// count, so the artifact is a pure function of maxExec.
func ComputeE12(maxExec, workers int) E12 {
	art := E12{Schema: SchemaE12, MaxExecutions: maxExec}
	for _, p := range []workload.ScaleProfile{workload.Scale10, workload.Scale100, workload.Scale500} {
		t := workload.ScaleRackDrainTarget(p)
		si := healthyServeStats(t)
		su := healthyServeStats(workload.UnindexedServing(t))
		art.Rows = append(art.Rows, E12Row{
			Nodes:              p.NumNodes(),
			Target:             t.Name,
			RelayEvents:        si.RelayEvents,
			RelaySends:         si.RelaySends,
			SubVisitsIndexed:   si.RelaySubVisits,
			SubVisitsUnindexed: su.RelaySubVisits,
			ListKeysIndexed:    si.ListKeysScanned,
			ListKeysUnindexed:  su.ListKeysScanned,
			BehaviourIdentical: si.RelayEvents == su.RelayEvents &&
				si.RelaySends == su.RelaySends &&
				si.ListServed == su.ListServed,
		})
	}

	t := workload.ScaleRackDrainTarget(workload.Scale100)
	cfg := campaign.Config{Workers: workers, MaxExecutions: maxExec, KeepGoing: true, Collect: true}
	idx := campaign.New(cfg).Run(t, core.NewPlanner())
	un := campaign.New(cfg).Run(workload.UnindexedServing(t), core.NewPlanner())
	var ndIdx, ndUn bytes.Buffer
	mustNDJSON(&ndIdx, idx, cfg)
	mustNDJSON(&ndUn, un, cfg)
	art.IdentityTarget = t.Name
	art.IdentityDetected = idx.Detected && un.Detected
	art.IdentityExecutions = idx.Campaign.Executions
	art.ArtifactIdentical = bytes.Equal(
		mustCanonicalJSON(campaign.BuildArtifact(idx, cfg)),
		mustCanonicalJSON(campaign.BuildArtifact(un, cfg)))
	art.TelemetryIdentical = bytes.Equal(ndIdx.Bytes(), ndUn.Bytes())
	return art
}

// healthyServeStats runs one unperturbed execution of the target and
// sums the serving counters across its apiservers.
func healthyServeStats(t core.Target) apiserver.ServeStats {
	c := t.Build(1)
	t.Workload(c)
	c.RunFor(t.Horizon)
	var total apiserver.ServeStats
	for _, api := range c.APIs {
		s := api.Stats()
		total.RelayEvents += s.RelayEvents
		total.RelaySubVisits += s.RelaySubVisits
		total.RelaySends += s.RelaySends
		total.ListServed += s.ListServed
		total.ListKeysScanned += s.ListKeysScanned
		total.DecodeHits += s.DecodeHits
		total.DecodeMisses += s.DecodeMisses
		total.WindowTrims += s.WindowTrims
		total.WindowCompacts += s.WindowCompacts
	}
	return total
}

func ReadE12(path string) (E12, error) {
	var art E12
	if err := readJSON(path, &art); err != nil {
		return E12{}, err
	}
	if art.Schema != SchemaE12 {
		return E12{}, fmt.Errorf("bench: %s: schema %q, want %q", path, art.Schema, SchemaE12)
	}
	return art, nil
}

func mustCanonicalJSON(art campaign.Artifact) []byte {
	data, err := json.Marshal(campaign.CanonicalizeArtifact(art))
	if err != nil {
		// Artifacts marshal by construction; a failure is a programming
		// error, not a runtime condition.
		panic(fmt.Sprintf("bench: marshal artifact: %v", err))
	}
	return data
}

func mustNDJSON(w *bytes.Buffer, res campaign.Result, cfg campaign.Config) {
	if err := campaign.WriteNDJSON(w, res, cfg); err != nil {
		panic(fmt.Sprintf("bench: telemetry stream: %v", err))
	}
}

// WriteFile serializes an artifact (E5 or E6) to path with a trailing
// newline, in the indented form the repo commits.
func WriteFile(path string, artifact any) error {
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadE5 and ReadE6 load committed artifacts, rejecting unknown schemas.
func ReadE5(path string) (E5, error) {
	var art E5
	if err := readJSON(path, &art); err != nil {
		return E5{}, err
	}
	if art.Schema != SchemaE5 {
		return E5{}, fmt.Errorf("bench: %s: schema %q, want %q", path, art.Schema, SchemaE5)
	}
	return art, nil
}

func ReadE6(path string) (E6, error) {
	var art E6
	if err := readJSON(path, &art); err != nil {
		return E6{}, err
	}
	if art.Schema != SchemaE6 {
		return E6{}, fmt.Errorf("bench: %s: schema %q, want %q", path, art.Schema, SchemaE6)
	}
	return art, nil
}

func ReadE10(path string) (E10, error) {
	var art E10
	if err := readJSON(path, &art); err != nil {
		return E10{}, err
	}
	if art.Schema != SchemaE10 {
		return E10{}, fmt.Errorf("bench: %s: schema %q, want %q", path, art.Schema, SchemaE10)
	}
	return art, nil
}

func readJSON(path string, into any) error {
	var err error
	var data []byte
	if data, err = os.ReadFile(path); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return nil
}
