package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/explain"
)

// This file emits the campaign telemetry stream: newline-delimited JSON
// (NDJSON), one event per line, in a fixed order. The stream is derived
// exclusively from the campaign's deterministic execution set and carries
// no wall-clock or worker-count dependent fields, so it is byte-identical
// across reruns and — for unguided campaigns — across worker counts.
// (Guided schedules are deterministic per worker count; their streams
// reproduce exactly at a fixed -parallel value.) Downstream tooling can
// therefore diff two streams to detect behavioural drift, not just read
// them.
//
// Fleet supervision counters (Stats.Fleet: worker deaths, task retries,
// quarantines) are deliberately NOT emitted here: they measure the host
// environment, and including them would break the stream's central
// contract — a farm campaign with injected worker crashes must emit the
// same bytes as a failure-free run, since retried tasks re-execute
// deterministically. Fleet health surfaces instead in the (non-canonical)
// artifact stats, the phfarm fleet report, and the coordinator journal's
// death/retry NDJSON lines.
//
// Event kinds, in emission order per campaign:
//
//	campaign_start   identity + configuration
//	learn_profile    one per (seed, component), learning campaigns only
//	plan_pruned      one per deferred plan, learning campaigns only
//	seed_result      one per seed, in sweep order
//	execution        one per deterministic execution (Collect only)
//	bucket           one per failure bucket, in signature order
//	campaign_end     sweep-level result + deterministic counters
type telemetryEvent struct {
	Event    string `json:"event"`
	Target   string `json:"target,omitempty"`
	Strategy string `json:"strategy,omitempty"`

	// campaign_start
	Seeds         []int64 `json:"seeds,omitempty"`
	Guided        *bool   `json:"guided,omitempty"`
	MaxExecutions int     `json:"max_executions,omitempty"`
	KeepGoing     *bool   `json:"keep_going,omitempty"`
	Explain       *bool   `json:"explain,omitempty"`
	Prune         *bool   `json:"prune,omitempty"`
	Ranked        *bool   `json:"ranked,omitempty"`

	// learn_profile (per seed, per component: the learned
	// observation→action table's summary row)
	Component  string   `json:"component,omitempty"`
	Deliveries int      `json:"deliveries,omitempty"`
	Consumed   int      `json:"consumed,omitempty"`
	Writes     int      `json:"writes,omitempty"`
	CASWrites  int      `json:"cas_writes,omitempty"`
	Kinds      []string `json:"kinds,omitempty"`

	// plan_pruned (per deferred plan: why it was deferred)
	Action         string `json:"action,omitempty"`
	Reason         string `json:"reason,omitempty"`
	Surface        *int   `json:"surface,omitempty"`
	Representative *int   `json:"representative,omitempty"`

	// seed_result / execution
	Seed *int64 `json:"seed,omitempty"`

	// seed_result
	Executions    int    `json:"executions,omitempty"`
	PlansTotal    int    `json:"plans_total,omitempty"`
	DetectingPlan string `json:"detecting_plan,omitempty"`

	// execution
	Index      *int     `json:"index,omitempty"`
	Plan       string   `json:"plan,omitempty"`
	Class      string   `json:"class,omitempty"`
	Signature  string   `json:"signature,omitempty"`
	Violations []string `json:"violations,omitempty"`
	Failed     *bool    `json:"failed,omitempty"`
	Hung       *bool    `json:"hung,omitempty"`
	Failure    string   `json:"failure,omitempty"`

	// bucket
	Oracles            []string             `json:"oracles,omitempty"`
	Count              int                  `json:"count,omitempty"`
	ExamplePlan        string               `json:"example_plan,omitempty"`
	ExampleSeed        *int64               `json:"example_seed,omitempty"`
	MinimalPlan        string               `json:"minimal_plan,omitempty"`
	MinimizeExecutions int                  `json:"minimize_executions,omitempty"`
	Explanation        *explain.Explanation `json:"explanation,omitempty"`

	// shared result fields
	Detected *bool `json:"detected,omitempty"`

	// campaign_end
	DetectedSeed        *int64 `json:"detected_seed,omitempty"`
	Detections          int    `json:"detections,omitempty"`
	ViolatingExecutions int    `json:"violating_executions,omitempty"`
	CoverageClasses     int    `json:"coverage_classes,omitempty"`
	NovelSignatures     int    `json:"novel_signatures,omitempty"`
	ExplainedBuckets    int    `json:"explained_buckets,omitempty"`
	// FailedExecutions / HungExecutions are emitted unconditionally on
	// campaign_end (healthy campaigns assert them == 0); the pruning
	// counters likewise (sound pruned campaigns assert
	// pruning_unsound_detections == 0).
	FailedExecutions         *int `json:"failed_executions,omitempty"`
	HungExecutions           *int `json:"hung_executions,omitempty"`
	PlansPruned              *int `json:"plans_pruned,omitempty"`
	PlansDeduped             *int `json:"plans_deduped,omitempty"`
	PrunedExecuted           *int `json:"pruned_executed,omitempty"`
	PruningUnsoundDetections *int `json:"pruning_unsound_detections,omitempty"`
	// Corpus counters are emitted on campaign_end only when the campaign
	// ran with a cross-campaign corpus (Config.Coverage), so corpus-less
	// streams keep their historical bytes.
	CorpusRegressionPlans  *int `json:"corpus_regression_plans,omitempty"`
	CorpusSkippedPlans     *int `json:"corpus_skipped_plans,omitempty"`
	CorpusInvalidatedSeeds *int `json:"corpus_invalidated_seeds,omitempty"`
	// SnapshotFallbacks is emitted on campaign_end only when at least one
	// fork fell back for a diagnosable cause, so healthy snapshot-on
	// streams stay byte-identical to snapshot-off streams. The counts are
	// a pure function of the deterministic execution set.
	SnapshotFallbacks *SnapshotFallbacks `json:"snapshot_fallbacks,omitempty"`
}

func boolPtr(b bool) *bool    { return &b }
func intPtr(i int) *int       { return &i }
func int64Ptr(i int64) *int64 { return &i }

// WriteNDJSON emits one campaign's telemetry stream to w.
func WriteNDJSON(w io.Writer, res Result, cfg Config) error {
	emit := func(ev telemetryEvent) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("campaign: marshal telemetry event: %w", err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("campaign: write telemetry event: %w", err)
		}
		return nil
	}

	if err := emit(telemetryEvent{
		Event:         "campaign_start",
		Target:        res.Target,
		Strategy:      res.Strategy,
		Seeds:         cfg.seedList(),
		Guided:        boolPtr(cfg.Guided),
		MaxExecutions: cfg.MaxExecutions,
		KeepGoing:     boolPtr(cfg.KeepGoing),
		Explain:       boolPtr(cfg.Explain),
		Prune:         boolPtr(cfg.Prune),
		Ranked:        boolPtr(cfg.Ranked),
	}); err != nil {
		return err
	}

	for _, sl := range res.Learn {
		for _, p := range sl.Profiles {
			if err := emit(telemetryEvent{
				Event:      "learn_profile",
				Seed:       int64Ptr(sl.Seed),
				Component:  p.Component,
				Deliveries: p.Deliveries,
				Consumed:   p.Consumed,
				Writes:     p.Writes,
				CASWrites:  p.CASWrites,
				Kinds:      p.Kinds,
			}); err != nil {
				return err
			}
		}
		for _, d := range sl.Decisions {
			if err := emit(telemetryEvent{
				Event:          "plan_pruned",
				Seed:           int64Ptr(sl.Seed),
				Index:          intPtr(d.Index),
				Plan:           d.Plan,
				Class:          d.Class,
				Action:         d.Action,
				Reason:         d.Reason,
				Surface:        intPtr(d.Surface),
				Representative: intPtr(d.Representative),
			}); err != nil {
				return err
			}
		}
	}

	for _, sr := range res.Seeds {
		if err := emit(telemetryEvent{
			Event:         "seed_result",
			Seed:          int64Ptr(sr.Seed),
			Detected:      boolPtr(sr.Campaign.Detected),
			Executions:    sr.Campaign.Executions,
			PlansTotal:    sr.Campaign.PlansTotal,
			DetectingPlan: sr.Campaign.DetectingPlan,
		}); err != nil {
			return err
		}
	}

	for _, out := range res.Outcomes {
		ev := telemetryEvent{
			Event:      "execution",
			Seed:       int64Ptr(out.Seed),
			Index:      intPtr(out.Index),
			Plan:       out.Plan,
			Class:      out.Class,
			Signature:  out.Signature,
			Detected:   boolPtr(out.Detected),
			Violations: out.Violations,
		}
		if out.Failed || out.Hung {
			ev.Failed = boolPtr(out.Failed)
			ev.Hung = boolPtr(out.Hung)
			ev.Failure = out.Failure
		}
		if err := emit(ev); err != nil {
			return err
		}
	}

	for _, b := range res.Buckets {
		if err := emit(telemetryEvent{
			Event:              "bucket",
			Signature:          b.Signature,
			Oracles:            b.Oracles,
			Count:              b.Count,
			ExamplePlan:        b.ExamplePlan,
			ExampleSeed:        int64Ptr(b.ExampleSeed),
			Detected:           boolPtr(b.Detected),
			MinimalPlan:        b.MinimalPlan,
			MinimizeExecutions: b.MinimizeExecutions,
			Explanation:        b.Explanation,
		}); err != nil {
			return err
		}
	}

	end := telemetryEvent{
		Event:                    "campaign_end",
		Target:                   res.Target,
		Strategy:                 res.Strategy,
		Detected:                 boolPtr(res.Detected),
		Executions:               res.Campaign.Executions,
		Detections:               res.Stats.Detections,
		ViolatingExecutions:      res.Stats.ViolatingExecutions,
		CoverageClasses:          res.Stats.CoverageClasses,
		NovelSignatures:          res.Stats.NovelSignatures,
		ExplainedBuckets:         res.Stats.ExplainedBuckets,
		FailedExecutions:         intPtr(res.Stats.FailedExecutions),
		HungExecutions:           intPtr(res.Stats.HungExecutions),
		PlansPruned:              intPtr(res.Stats.PlansPruned),
		PlansDeduped:             intPtr(res.Stats.PlansDeduped),
		PrunedExecuted:           intPtr(res.Stats.PrunedExecuted),
		PruningUnsoundDetections: intPtr(res.Stats.PruningUnsoundDetections),
	}
	if res.Detected {
		end.DetectedSeed = int64Ptr(res.DetectedSeed)
	}
	if cfg.Coverage != nil {
		end.CorpusRegressionPlans = intPtr(res.Stats.CorpusRegressionPlans)
		end.CorpusSkippedPlans = intPtr(res.Stats.CorpusSkippedPlans)
		end.CorpusInvalidatedSeeds = intPtr(res.Stats.CorpusInvalidatedSeeds)
	}
	if res.Stats.SnapshotFallbacks.total() > 0 {
		fb := *res.Stats.SnapshotFallbacks
		end.SnapshotFallbacks = &fb
	}
	return emit(end)
}

// WriteNDJSONFile writes the concatenated telemetry streams of several
// campaigns (in matrix order) to path, each with the config its cell ran
// under: cfgs[i] is results[i]'s (cells differ when a corpus seeds each
// from its own slice).
func WriteNDJSONFile(path string, results []Result, cfgs []Config) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("campaign: create telemetry file: %w", err)
	}
	bw := bufio.NewWriter(f)
	for i, res := range results {
		if err := WriteNDJSON(bw, res, cfgs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("campaign: flush telemetry file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("campaign: close telemetry file: %w", err)
	}
	return nil
}
