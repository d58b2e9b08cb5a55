package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/explain"
)

// Stats carries a campaign's progress counters.
type Stats struct {
	// Workers is the configured pool width.
	Workers int `json:"workers"`
	// Seeds is how many world seeds the campaign swept.
	Seeds int `json:"seeds"`
	// RawExecutions counts every cluster actually built and run —
	// references plus plan executions, across all seeds, including
	// in-flight work that a detection made redundant (which the
	// deterministic counters below deliberately exclude). Compare with
	// CampaignResult.Executions, which reports the serial-equivalent
	// position of the detection.
	RawExecutions int `json:"raw_executions"`
	// Detections counts executions in which the target oracle fired,
	// within the deterministic execution set.
	Detections int `json:"detections"`
	// ViolatingExecutions counts executions with at least one violation
	// of any oracle (superset of Detections), within the deterministic
	// execution set.
	ViolatingExecutions int `json:"violating_executions"`
	// CoverageClasses / NovelSignatures summarize instrumented coverage:
	// distinct predicted plan classes executed and distinct execution
	// signatures observed. Zero when the campaign ran uninstrumented.
	CoverageClasses int `json:"coverage_classes"`
	NovelSignatures int `json:"novel_signatures"`
	// MinimizeExecutions counts the verification executions the
	// explanation pass spent shrinking detected buckets' example plans
	// (including each bucket's one instrumented re-execution);
	// ExplainedBuckets counts the buckets that received an explanation.
	// Zero unless Config.Explain is set.
	MinimizeExecutions int `json:"minimize_executions,omitempty"`
	ExplainedBuckets   int `json:"explained_buckets,omitempty"`
	// FailedExecutions counts executions that panicked (converted into
	// Failed records by the worker guard); HungExecutions counts executions
	// the event-budget watchdog flagged as livelocked. Both are emitted
	// unconditionally (not omitempty) so healthy-campaign invariants can be
	// asserted as == 0 by downstream checks.
	FailedExecutions int `json:"failed_executions"`
	HungExecutions   int `json:"hung_executions"`
	// PlansPruned / PlansDeduped count the plans the learning phase
	// (Config.Prune) deferred — empty consumed surface and
	// equivalence-class duplicates respectively — summed across seeds.
	// PrunedExecuted counts deferred plans that still executed (the
	// soundness tail: the kept set found nothing, or KeepGoing).
	// PruningUnsoundDetections counts tail detections the kept set missed
	// entirely — every nonzero value is a pruning-rule bug surfaced, never
	// swallowed. All four are emitted unconditionally so downstream checks
	// can assert pruning_unsound_detections == 0.
	PlansPruned              int `json:"plans_pruned"`
	PlansDeduped             int `json:"plans_deduped"`
	PrunedExecuted           int `json:"pruned_executed"`
	PruningUnsoundDetections int `json:"pruning_unsound_detections"`
	// CorpusRegressionPlans counts plans promoted into the always-run
	// regression block by the cross-campaign corpus (Config.Coverage);
	// CorpusSkippedPlans counts plans skipped outright because the corpus
	// recorded their healthy, non-violating execution under a matching
	// reference hash; CorpusInvalidatedSeeds counts seeds whose corpus
	// entries failed the reference-hash guard and were ignored. All three
	// are zero (and omitted) in corpus-less campaigns, so historical
	// artifacts keep their bytes.
	CorpusRegressionPlans  int `json:"corpus_regression_plans,omitempty"`
	CorpusSkippedPlans     int `json:"corpus_skipped_plans,omitempty"`
	CorpusInvalidatedSeeds int `json:"corpus_invalidated_seeds,omitempty"`
	// SnapshotFallbacks counts deterministic-set executions whose prefix
	// fork fell back to full replay for a diagnosable cause. Nil (omitted)
	// when every cause is zero or snapshotting is off, so snapshot-on and
	// snapshot-off artifacts stay byte-identical on healthy substrates. The
	// counts are a pure function of (target, seed, plan set) — forks never
	// race — so they survive canonicalization.
	SnapshotFallbacks *SnapshotFallbacks `json:"snapshot_fallbacks,omitempty"`
	// Fleet carries the farm supervision counters for campaigns that ran
	// under a coordinator/worker fleet: worker deaths attributed to this
	// cell's tasks, task retries, and poison-task quarantines. Nil
	// (omitted) for single-process campaigns and for fleet campaigns that
	// saw no supervision events, so historical artifacts keep their bytes.
	// Unlike every other deterministic counter, fleet counters measure the
	// host environment (which worker died, when) — canonicalization nils
	// them, which is exactly the claim that worker failures never leak
	// into campaign results.
	Fleet *FleetStats `json:"fleet,omitempty"`
	// WallNanos is the campaign's wall-clock time; ExecutionsPerSec is
	// RawExecutions normalized by it.
	WallNanos        int64   `json:"wall_ns"`
	ExecutionsPerSec float64 `json:"executions_per_sec"`
}

// SnapshotFallbacks breaks down fork-to-full-replay fallbacks by cause.
// Routine "no qualifying checkpoint" replays are not fallbacks and are not
// counted; these causes all indicate a snapshot-layer defect or a
// component contract violation worth investigating.
type SnapshotFallbacks struct {
	// Unsnapshotable is never counted: every cluster captures. The field
	// stays for benchmark/workloads.go, which sums it.
	Unsnapshotable int `json:"unsnapshotable,omitempty"`
	StrictPast     int `json:"strict_past,omitempty"`
	RestoreError   int `json:"restore_error,omitempty"`
	Watchdog       int `json:"watchdog,omitempty"`
}

func (f *SnapshotFallbacks) total() int {
	if f == nil {
		return 0
	}
	return f.Unsnapshotable + f.StrictPast + f.RestoreError + f.Watchdog
}

// FleetStats aggregates the farm supervision layer's outcomes: how many
// workers died, how many were respawned, how many tasks were retried on a
// healthy worker after a death, and how many tasks were quarantined as
// poison (killed farm's maxTaskKills distinct workers). The counters live here —
// not in the farm package — so they can ride inside Stats; every field is
// emitted without omitempty so downstream checks can assert
// tasks_quarantined == 0 on healthy chaos runs.
type FleetStats struct {
	WorkerDeaths     int `json:"worker_deaths"`
	WorkerRespawns   int `json:"worker_respawns"`
	TasksRetried     int `json:"tasks_retried"`
	TasksQuarantined int `json:"tasks_quarantined"`
}

// Add accumulates g into f (merging per-part fleet counters).
func (f *FleetStats) Add(g FleetStats) {
	f.WorkerDeaths += g.WorkerDeaths
	f.WorkerRespawns += g.WorkerRespawns
	f.TasksRetried += g.TasksRetried
	f.TasksQuarantined += g.TasksQuarantined
}

// Zero reports whether no supervision event was recorded.
func (f FleetStats) Zero() bool { return f == FleetStats{} }

func (s Stats) String() string {
	out := fmt.Sprintf("%d execs in %.2fs (%.1f exec/s, %d workers, %d seeds, %d classes, %d signatures, %d detections)",
		s.RawExecutions, float64(s.WallNanos)/1e9, s.ExecutionsPerSec,
		s.Workers, s.Seeds, s.CoverageClasses, s.NovelSignatures, s.Detections)
	if s.ExplainedBuckets > 0 {
		out += fmt.Sprintf(", %d buckets explained in %d minimization execs", s.ExplainedBuckets, s.MinimizeExecutions)
	}
	if s.FailedExecutions > 0 || s.HungExecutions > 0 {
		out += fmt.Sprintf(", %d FAILED, %d HUNG", s.FailedExecutions, s.HungExecutions)
	}
	if n := s.SnapshotFallbacks.total(); n > 0 {
		out += fmt.Sprintf(", %d snapshot fallbacks", n)
	}
	if s.PlansPruned > 0 || s.PlansDeduped > 0 {
		out += fmt.Sprintf(", %d pruned + %d deduped (%d deferred executed)",
			s.PlansPruned, s.PlansDeduped, s.PrunedExecuted)
	}
	if s.PruningUnsoundDetections > 0 {
		out += fmt.Sprintf(", %d UNSOUND PRUNES", s.PruningUnsoundDetections)
	}
	if s.CorpusRegressionPlans > 0 || s.CorpusSkippedPlans > 0 {
		out += fmt.Sprintf(", corpus: %d regression + %d skipped", s.CorpusRegressionPlans, s.CorpusSkippedPlans)
	}
	if s.CorpusInvalidatedSeeds > 0 {
		out += fmt.Sprintf(", %d CORPUS-INVALIDATED SEEDS", s.CorpusInvalidatedSeeds)
	}
	if s.Fleet != nil && !s.Fleet.Zero() {
		out += fmt.Sprintf(", fleet: %d worker deaths, %d retried", s.Fleet.WorkerDeaths, s.Fleet.TasksRetried)
		if s.Fleet.TasksQuarantined > 0 {
			out += fmt.Sprintf(", %d QUARANTINED", s.Fleet.TasksQuarantined)
		}
	}
	return out
}

// ExecutionFailure is one panicked, watchdog-flagged, or quarantined
// execution in the campaign artifact: enough to reproduce (plan ID + seed)
// and triage (kind + detail) without digging through worker logs.
type ExecutionFailure struct {
	Seed int64 `json:"seed"`
	// Index is the plan's position in the strategy's order; -1 for
	// failures that precede any plan (reference runs, quarantined tasks).
	Index int    `json:"index"`
	Plan  string `json:"plan"`
	// Kind is "panic" (worker guard), "watchdog" (event-budget livelock),
	// or "quarantine" (a farm task that killed maxTaskKills workers and
	// was recorded as failed instead of aborting the campaign).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// PlanOutcome is one execution's record in the campaign artifact.
type PlanOutcome struct {
	Seed int64 `json:"seed"`
	// Index is the plan's position in the strategy's order; -1 marks the
	// reference run.
	Index       int    `json:"index"`
	Plan        string `json:"plan"`
	Description string `json:"description"`
	Class       string `json:"class"`
	// Signature is the execution's coverage fingerprint (hex); empty for
	// uninstrumented runs.
	Signature  string   `json:"signature,omitempty"`
	Detected   bool     `json:"detected"`
	Violations []string `json:"violations,omitempty"`
	// Failed / Hung / Failure mirror core.Execution's crash-safety fields:
	// a panicked or livelocked execution is recorded, not lost.
	Failed     bool   `json:"failed,omitempty"`
	Hung       bool   `json:"hung,omitempty"`
	Failure    string `json:"failure,omitempty"`
	WallMicros int64  `json:"wall_us"`
}

// FailureBucket groups violating executions with identical signatures —
// the dedup view a triager reads instead of a flat violation list.
type FailureBucket struct {
	Signature string `json:"signature"`
	// Oracles is the sorted set of oracle names that fired in this
	// bucket's executions.
	Oracles []string `json:"oracles"`
	// Count is how many executions landed in the bucket.
	Count int `json:"count"`
	// ExamplePlan/ExamplePlanID/ExampleSeed identify one reproducing
	// execution — the earliest one in (sweep order, plan order), so the
	// example is stable across reruns. The ID is the strategy-stable plan
	// coordinate the cross-campaign corpus keys regression checks on.
	ExamplePlan   string `json:"example_plan"`
	ExamplePlanID string `json:"example_plan_id,omitempty"`
	ExampleSeed   int64  `json:"example_seed"`
	// Detected marks buckets containing the target bug's oracle.
	Detected bool `json:"detected"`
	// MinimalPlan/MinimalPlanID/MinimizeExecutions and Explanation are
	// populated by the engine's explanation pass (Config.Explain) for
	// detected buckets: the example plan minimized under ExampleSeed and
	// its causal chain down to the oracle violation.
	MinimalPlan        string               `json:"minimal_plan,omitempty"`
	MinimalPlanID      string               `json:"minimal_plan_id,omitempty"`
	MinimizeExecutions int                  `json:"minimize_executions,omitempty"`
	Explanation        *explain.Explanation `json:"explanation,omitempty"`
	// example is the live plan behind ExamplePlan: what the explanation
	// pass minimizes and the learning ranker classifies. It exists only in
	// the process that ran the execution — a bucket decoded from the wire
	// or a journal has none — and Canonicalize drops it.
	example core.Plan
}

// aggregator accumulates one seed's part of a sweep: counters go straight
// into the part's Stats, records into its slices, and Merge does the rest
// (there is no cross-seed state here). The engine feeds it
// deterministically (slots in dispatch order, after each pool drains), so
// no locking is needed.
type aggregator struct {
	cfg  Config
	seed int64

	part    Result
	buckets map[Signature]*FailureBucket
	// exampleIndex is the plan index of each bucket's current example:
	// guided and learned schedules run plans out of strategy order, and
	// the example must be the earliest in plan order, not dispatch order.
	exampleIndex map[Signature]int
}

func newAggregator(cfg Config, t core.Target, s core.Strategy, seed int64) *aggregator {
	a := &aggregator{
		cfg:  cfg,
		seed: seed,
		part: Result{
			Target: t.Name, Strategy: s.Name(),
			Stats: Stats{Workers: cfg.workerCount(), Seeds: 1},
		},
		buckets:      make(map[Signature]*FailureBucket),
		exampleIndex: make(map[Signature]int),
	}
	if cfg.instrumented() {
		a.part.cov = newCoverage()
	}
	return a
}

// noteRaw counts one cluster execution, deterministic or not. The engine
// calls it for every slot that actually ran, including in-flight work a
// detection made redundant.
func (a *aggregator) noteRaw() { a.part.Stats.RawExecutions++ }

// noteFallback counts one diagnosable fork fallback. fallbackNone — no
// eligible rung — is routine and ignored, so a healthy substrate keeps a
// nil SnapshotFallbacks and its snapshot-off bytes.
func (st *Stats) noteFallback(c fallbackCause) {
	if c == fallbackNone {
		return
	}
	if st.SnapshotFallbacks == nil {
		st.SnapshotFallbacks = &SnapshotFallbacks{}
	}
	switch c {
	case fallbackStrictPast:
		st.SnapshotFallbacks.StrictPast++
	case fallbackRestoreError:
		st.SnapshotFallbacks.RestoreError++
	case fallbackWatchdog:
		st.SnapshotFallbacks.Watchdog++
	}
}

// add records one executed slot from the deterministic execution set.
func (a *aggregator) add(sl slot) {
	st := &a.part.Stats
	if sl.exec.Detected {
		st.Detections++
	}
	st.noteFallback(sl.fallback)
	if len(sl.exec.Violations) > 0 {
		st.ViolatingExecutions++
	}
	broken := sl.exec.Failed || sl.exec.Hung
	if broken {
		kind := "panic"
		if sl.exec.Hung {
			kind = "watchdog"
		}
		if sl.exec.Failed {
			st.FailedExecutions++
		}
		if sl.exec.Hung {
			st.HungExecutions++
		}
		a.part.Failures = append(a.part.Failures, ExecutionFailure{
			Seed: a.seed, Index: sl.planIndex, Plan: sl.plan.ID(),
			Kind: kind, Detail: sl.exec.Failure,
		})
	}
	cls := classOf(sl.plan)
	// Failed/hung executions have partial traces and a zero signature;
	// keeping them out of the coverage and bucket maps stops a panicked run
	// from aliasing with healthy executions.
	sig := ""
	if a.part.cov != nil {
		if !broken {
			sig = sl.sig.String()
			if len(sl.exec.Violations) > 0 {
				a.bucket(sl)
			}
		}
		a.part.cov.add(cls, sig)
	}
	if a.cfg.Collect || a.cfg.OnOutcome != nil {
		out := PlanOutcome{
			Seed:        a.seed,
			Index:       sl.planIndex,
			Plan:        sl.plan.ID(),
			Description: sl.plan.Describe(),
			Class:       cls,
			Signature:   sig,
			Detected:    sl.exec.Detected,
			Failed:      sl.exec.Failed,
			Hung:        sl.exec.Hung,
			Failure:     sl.exec.Failure,
			WallMicros:  sl.wall.Microseconds(),
		}
		for _, v := range sl.exec.Violations {
			out.Violations = append(out.Violations, v.Oracle)
		}
		if a.cfg.Collect {
			a.part.Outcomes = append(a.part.Outcomes, out)
		}
		if a.cfg.OnOutcome != nil {
			a.cfg.OnOutcome(out)
		}
	}
}

// noteCorpus records the seed's cross-campaign corpus decisions:
// regression-block size, outright skips, and whether the seed's corpus
// entries failed the reference-hash guard.
func (a *aggregator) noteCorpus(regression, skipped int, invalidated bool) {
	a.part.Stats.CorpusRegressionPlans += regression
	a.part.Stats.CorpusSkippedPlans += skipped
	if invalidated {
		a.part.Stats.CorpusInvalidatedSeeds++
	}
}

// bucket files one violating execution under its signature. Oracles and
// Detected are fixed by the first execution filed; the example is the
// earliest in plan order (the reference run, index -1, before any plan).
func (a *aggregator) bucket(sl slot) {
	b := a.buckets[sl.sig]
	if b == nil {
		names := map[string]bool{}
		for _, v := range sl.exec.Violations {
			names[v.Oracle] = true
		}
		oracles := make([]string, 0, len(names))
		for n := range names {
			oracles = append(oracles, n)
		}
		sort.Strings(oracles)
		b = &FailureBucket{
			Signature:   sl.sig.String(),
			Oracles:     oracles,
			ExampleSeed: a.seed,
			Detected:    sl.exec.Detected,
		}
		a.buckets[sl.sig] = b
	}
	b.Count++
	if b.Count == 1 || sl.planIndex < a.exampleIndex[sl.sig] {
		a.exampleIndex[sl.sig] = sl.planIndex
		b.example = sl.plan
		b.ExamplePlan = sl.plan.Describe()
		b.ExamplePlanID = sl.plan.ID()
	}
}

// result closes the seed's part: its one SeedResult and its buckets in
// sorted-signature order, with everything derivable derived.
func (a *aggregator) result(sr SeedResult) Result {
	part := a.part
	part.Seeds = []SeedResult{sr}
	var buckets []FailureBucket
	for _, b := range a.buckets {
		buckets = append(buckets, *b)
	}
	part.Buckets = joinBuckets(nil, buckets)
	part.derive()
	return part
}

// Artifact is the JSON form of one campaign — the campaign.json schema.
type Artifact struct {
	Target        string  `json:"target"`
	Strategy      string  `json:"strategy"`
	Workers       int     `json:"workers"`
	Seeds         []int64 `json:"seeds"`
	MaxExecutions int     `json:"max_executions"`
	Guided        bool    `json:"guided"`
	// Prune / Ranked echo the learning-phase configuration (see
	// Config.Prune / Config.Ranked).
	Prune    bool `json:"prune"`
	Ranked   bool `json:"ranked"`
	Detected bool `json:"detected"`
	// DetectedSeed is the world seed of the first detection in sweep
	// order (present only when Detected).
	DetectedSeed int64 `json:"detected_seed,omitempty"`
	// Campaign is the sweep-level headline result (first detection in
	// sweep order; see Result.Campaign).
	Campaign core.CampaignResult `json:"campaign"`
	// PerSeed holds every seed's result when more than one seed ran.
	PerSeed  []SeedResult    `json:"per_seed,omitempty"`
	Stats    Stats           `json:"stats"`
	Buckets  []FailureBucket `json:"failure_buckets,omitempty"`
	Outcomes []PlanOutcome   `json:"outcomes,omitempty"`
	// Failures lists every panicked or watchdog-flagged execution in the
	// deterministic execution set (see Stats.FailedExecutions /
	// HungExecutions for the counts).
	Failures []ExecutionFailure `json:"execution_failures,omitempty"`
	// Learn holds each seed's learning-phase report: profile summaries
	// and every prune/dedupe decision (Config.Prune / Ranked only).
	Learn []SeedLearn `json:"learn,omitempty"`
}

// BuildArtifact converts a Result into its artifact form.
func BuildArtifact(res Result, cfg Config) Artifact {
	art := Artifact{
		Target:        res.Target,
		Strategy:      res.Strategy,
		Workers:       cfg.workerCount(),
		Seeds:         cfg.seedList(),
		MaxExecutions: cfg.MaxExecutions,
		Guided:        cfg.Guided,
		Prune:         cfg.Prune,
		Ranked:        cfg.Ranked,
		Detected:      res.Detected,
		Campaign:      res.Campaign,
		Stats:         res.Stats,
		Buckets:       res.Buckets,
		Outcomes:      res.Outcomes,
		Failures:      res.Failures,
		Learn:         res.Learn,
	}
	if res.Detected {
		art.DetectedSeed = res.DetectedSeed
	}
	if len(res.Seeds) > 1 {
		art.PerSeed = res.Seeds
	}
	return art
}

// WriteArtifactsStatus writes the campaign artifact file: a JSON document
// with one entry per (target, strategy) campaign, and an interrupted
// marker: a run cancelled by SIGINT/SIGTERM flushes the campaigns it
// completed as a valid document tagged "interrupted": true, instead of
// dying mid-write and leaving a truncated file.
func WriteArtifactsStatus(path string, artifacts []Artifact, interrupted bool) error {
	doc := struct {
		Tool        string     `json:"tool"`
		Interrupted bool       `json:"interrupted,omitempty"`
		Campaigns   []Artifact `json:"campaigns"`
	}{Tool: "phtest", Interrupted: interrupted, Campaigns: artifacts}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: marshal artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("campaign: write artifact: %w", err)
	}
	return nil
}

// ReadArtifacts loads a campaign artifact file (the inverse of
// WriteArtifactsStatus), for tools and tests.
func ReadArtifacts(path string) ([]Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read artifact: %w", err)
	}
	var doc struct {
		Tool      string     `json:"tool"`
		Campaigns []Artifact `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("campaign: parse artifact: %w", err)
	}
	return doc.Campaigns, nil
}
