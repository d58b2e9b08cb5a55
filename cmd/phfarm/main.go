// Command phfarm runs campaign fleets: the same bug-finding campaigns
// as phtest, sharded across worker subprocesses by a coordinator that
// merges the shards back into byte-identical artifacts.
//
// Three modes:
//
//	phfarm [flags]             coordinator: shard the (target × seed)
//	                           space across -workers subprocesses
//	phfarm -worker             worker: serve tasks over stdin/stdout
//	                           (spawned by the coordinator; not for
//	                           interactive use)
//	phfarm -grid grid.json     experiment grid: expand a declarative
//	                           targets × strategies × toggles × repeats
//	                           grid, run it across the fleet, and emit
//	                           a summary table (and -csv file)
//
// Sharding follows the engine's independence structure: seeds shard
// freely, except for learning campaigns (-prune/-ranked) whose
// cross-seed bucket affinity couples the sweep — those cells run whole
// on one worker. Merged campaign.json and NDJSON artifacts are
// byte-identical to a single-process phtest run with the same flags
// (after -canonical scrubbing of wall-clock fields), at any worker
// count; guided campaigns additionally require matching -parallel,
// because guided schedules are deterministic per in-process pool width.
//
// -corpus dir maintains a persistent cross-campaign corpus: each
// campaign seeds from it (known buckets re-confirm first, recorded
// healthy plans are skipped) and records into it when done.
//
// SIGINT/SIGTERM kill the fleet, flush the cells that completed as a
// valid artifact marked "interrupted": true, and exit 130.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/campaign"
	"repro/internal/farm"
	"repro/internal/farm/corpus"
)

// gcPercent is the collector's pace for the coordinator and, being the same
// binary, every worker, unless the environment sets GOGC or GOMEMLIMIT
// itself: the value and the reason are cmd/phtest's.
const gcPercent = 400

func main() {
	if os.Getenv("GOGC") == "" && os.Getenv("GOMEMLIMIT") == "" {
		debug.SetGCPercent(gcPercent)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// newWorkerTransport builds one worker incarnation's transport; a
// variable so tests can swap in in-process transports instead of
// spawning subprocesses. nil selects the subprocess fleet (the
// coordinator re-execs its own binary with -worker).
var newWorkerTransport func(slot, spawn int) farm.Transport

// workerFactory resolves the transport factory for this run, wrapping
// each slot's first incarnation in a scripted fault when -chaos asks
// for one. Respawns always come up clean: chaos tests the supervision
// layer's recovery, and a permanently cursed slot would just retire.
func workerFactory(chaos []farm.Fault) (func(slot, spawn int) farm.Transport, error) {
	base := newWorkerTransport
	if base == nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("phfarm: cannot find own binary: %w", err)
		}
		base = func(slot, spawn int) farm.Transport {
			return farm.NewProcessTransport(exe, "-worker")
		}
	}
	if len(chaos) == 0 {
		return base, nil
	}
	return func(slot, spawn int) farm.Transport {
		tr := base(slot, spawn)
		if spawn == 0 && slot < len(chaos) && chaos[slot].Kind != "" {
			return &farm.FaultTransport{Inner: tr, Fault: chaos[slot]}
		}
		return tr
	}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phfarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	worker := fs.Bool("worker", false, "run as a farm worker serving tasks on stdin/stdout (internal)")
	gridPath := fs.String("grid", "", "run the experiment grid in this JSON file")
	csvPath := fs.String("csv", "", "write the grid's deterministic per-cell CSV to this path (grid mode)")
	workers := fs.Int("workers", 2, "number of worker processes")
	targetsFlag := fs.String("targets", "all", "comma-separated target bugs or 'all'")
	strategiesFlag := fs.String("strategies", "all", "comma-separated strategies or 'all'")
	maxExec := fs.Int("max", 500, "max plan executions per (target, strategy, seed)")
	seed := fs.Int64("seed", 7, "seed for the random baseline's plan generator")
	randomN := fs.Int("random-n", 500, "number of random plans to generate")
	parallel := fs.Int("parallel", 0, "in-process pool width per worker (0 = GOMAXPROCS)")
	seedsFlag := fs.String("seeds", "1", "comma-separated world seeds to sweep")
	guided := fs.Bool("guided", false, "coverage-guided plan scheduling (fuzzer-style)")
	prune := fs.Bool("prune", false, "learn read-dependency profiles and defer non-intersecting plans")
	ranked := fs.Bool("ranked", false, "order kept plans by learned impact score (requires -prune)")
	snapshot := fs.Bool("snapshot", false, "fork plan executions from copy-on-write prefix checkpoints")
	jsonPath := fs.String("json", "", "write the merged campaign artifact to this path")
	ndjsonPath := fs.String("ndjson", "", "write the merged NDJSON telemetry stream to this path")
	canonical := fs.Bool("canonical", false, "zero wall-clock and worker-count fields in the artifact (byte-comparable form)")
	corpusDir := fs.String("corpus", "", "persistent cross-campaign corpus directory (seed from it, record into it)")
	keepGoing := fs.Bool("keep-going", false, "do not cancel on first detection; execute every plan")
	eventBudget := fs.Uint64("event-budget", 0, "kernel step budget per execution for the livelock watchdog (0 = default)")
	explainFlag := fs.Bool("explain", false, "minimize and causally explain every detected failure bucket")
	fixed := fs.Bool("fixed", false, "run against the fixed component variants (expect no detections)")
	verbose := fs.Bool("v", false, "print per-cell stats and streaming progress")
	journalDir := fs.String("journal", "", "coordinator journal directory (one fsynced line per settled task)")
	resume := fs.Bool("resume", false, "resume a killed run from its -journal, re-dispatching only unsettled tasks")
	fleetPath := fs.String("fleet", "", "write the fleet supervision report (deaths, respawns, retries) to this JSON path")
	chaosFlag := fs.String("chaos", "", "inject scripted worker faults, e.g. 'kill@4,stall@9,torn@6' (slot i's first spawn gets entry i; testing)")
	taskDeadline := fs.Duration("task-deadline", 0, "per-task completion deadline before the worker is declared stalled (0 = scaled default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *worker {
		if err := farm.WorkerLoop(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(stderr, "phfarm:", err)
			return 1
		}
		return 0
	}
	if err := farm.ValidateFlags(farm.FlagRules{
		Prune: *prune, Ranked: *ranked, Explain: *explainFlag,
		Snapshot: *snapshot, Fixed: *fixed,
	}); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(stderr, "phfarm: -workers must be >= 1")
		return 2
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(stderr, "phfarm: -resume requires -journal")
		return 2
	}
	chaos, err := farm.ParseChaos(*chaosFlag)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	fleet := fleetOpts{
		workers: *workers, verbose: *verbose,
		journalDir: *journalDir, resume: *resume, fleetPath: *fleetPath,
		chaos: chaos, taskDeadline: *taskDeadline,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gridPath != "" {
		return runGrid(ctx, *gridPath, *csvPath, fleet, *parallel, stdout, stderr)
	}

	seeds, err := farm.ParseSeeds(*seedsFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base := farm.TaskSpec{
		Fixed:         *fixed,
		RandomSeed:    *seed,
		RandomN:       *randomN,
		Seeds:         seeds,
		MaxExecutions: *maxExec,
		Parallel:      *parallel,
		Guided:        *guided,
		KeepGoing:     *keepGoing,
		Explain:       *explainFlag,
		Prune:         *prune,
		Ranked:        *ranked,
		Snapshot:      *snapshot,
		EventBudget:   *eventBudget,
	}
	return runMatrix(ctx, matrixOpts{
		targets: *targetsFlag, strategies: *strategiesFlag,
		base: base, fleet: fleet,
		jsonPath: *jsonPath, ndjsonPath: *ndjsonPath,
		canonical: *canonical, corpusDir: *corpusDir,
		verbose: *verbose,
	}, stdout, stderr)
}

// fleetOpts carries the supervision-layer configuration from flags to
// dispatch.
type fleetOpts struct {
	workers      int
	verbose      bool
	journalDir   string
	resume       bool
	fleetPath    string
	chaos        []farm.Fault
	taskDeadline time.Duration
}

type matrixOpts struct {
	targets, strategies  string
	base                 farm.TaskSpec
	fleet                fleetOpts
	jsonPath, ndjsonPath string
	canonical            bool
	corpusDir            string
	verbose              bool
}

func runMatrix(ctx context.Context, o matrixOpts, stdout, stderr io.Writer) int {
	// Resolve up front so bad names fail before any worker spawns.
	targets, err := farm.ResolveTargets(o.targets, o.base.Fixed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	strategies, err := farm.ResolveStrategies(o.strategies, o.base.RandomSeed, o.base.RandomN)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	targetNames := make([]string, len(targets))
	for i, t := range targets {
		targetNames[i] = t.Name
	}
	strategyNames := make([]string, len(strategies))
	for i, s := range strategies {
		strategyNames[i] = s.Name()
	}

	tasks := farm.Plan(targetNames, strategyNames, o.base)
	coverage := map[farm.Cell]*campaign.CoverageSeed{}
	if o.corpusDir != "" {
		for _, tn := range targetNames {
			for _, sn := range strategyNames {
				cov, err := corpus.Load(o.corpusDir, tn, sn)
				if err != nil {
					fmt.Fprintln(stderr, "phfarm:", err)
					return 1
				}
				coverage[farm.Cell{Target: tn, Strategy: sn}] = cov
			}
		}
		for i := range tasks {
			tasks[i].Coverage = coverage[farm.Cell{Target: tasks[i].Target, Strategy: tasks[i].Strategy}]
		}
	}

	fmt.Fprintf(stdout, "Campaign fleet: %d tasks across %d workers\n", len(tasks), o.fleet.workers)
	fmt.Fprintf(stdout, "targets=%d strategies=%d max-executions=%d seeds=%v guided=%v prune=%v ranked=%v snapshot=%v corpus=%v\n\n",
		len(targets), len(strategies), o.base.MaxExecutions, o.base.Seeds,
		o.base.Guided, o.base.Prune, o.base.Ranked, o.base.Snapshot, o.corpusDir != "")

	results, interrupted, err := dispatch(ctx, tasks, o.fleet, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 1
	}
	merged, incomplete := farm.Collate(results)

	printMatrix(stdout, targetNames, strategyNames, merged, len(o.base.Seeds) > 1)
	if o.verbose {
		for _, res := range merged {
			fmt.Fprintln(stdout, res.Campaign)
			fmt.Fprintf(stdout, "  %s\n", res.Stats)
		}
	}
	for _, c := range incomplete {
		fmt.Fprintf(stderr, "phfarm: cell %s/%s incomplete (worker failed or run interrupted)\n", c.Target, c.Strategy)
	}

	if o.corpusDir != "" && !interrupted {
		for _, res := range merged {
			if res.Stats.Fleet != nil && res.Stats.Fleet.TasksQuarantined > 0 {
				// A quarantined cell's result is a synthetic failure, not
				// campaign evidence; recording it would poison the corpus.
				continue
			}
			if err := corpus.Record(o.corpusDir, res.Target, res.Strategy, res); err != nil {
				fmt.Fprintln(stderr, "phfarm:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "\ncorpus updated: %s (%d cells)\n", o.corpusDir, len(merged))
	}

	cfgs := make([]campaign.Config, len(merged))
	for i, res := range merged {
		cfgs[i] = cellConfig(o.base, coverage[farm.Cell{Target: res.Target, Strategy: res.Strategy}])
	}
	if o.jsonPath != "" {
		var artifacts []campaign.Artifact
		for i, res := range merged {
			art := campaign.BuildArtifact(res, cfgs[i])
			if o.canonical {
				art = campaign.CanonicalizeArtifact(art)
			}
			artifacts = append(artifacts, art)
		}
		if err := campaign.WriteArtifactsStatus(o.jsonPath, artifacts, interrupted); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\ncampaign artifact: %s (%d campaigns)\n", o.jsonPath, len(artifacts))
	}
	if o.ndjsonPath != "" {
		if err := campaign.WriteNDJSONFile(o.ndjsonPath, merged, cfgs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry stream: %s (%d campaigns)\n", o.ndjsonPath, len(merged))
	}

	if interrupted {
		fmt.Fprintln(stderr, "phfarm: interrupted; partial results flushed")
		return 130
	}
	for _, tr := range results {
		if tr.Err != "" {
			fmt.Fprintf(stderr, "phfarm: task %d (%s/%s) failed: %s\n", tr.Spec.ID, tr.Spec.Target, tr.Spec.Strategy, tr.Err)
			return 1
		}
		if tr.Quarantine != nil {
			// Quarantine is a recorded failure, not an abort: the run
			// succeeds, the poisoned cell's artifact says what happened,
			// and the operator hears about it here.
			fmt.Fprintf(stderr, "phfarm: task %d (%s/%s) quarantined: %s\n",
				tr.Spec.ID, tr.Spec.Target, tr.Spec.Strategy, tr.Quarantine.Detail)
		}
	}
	return 0
}

// dispatch runs the task list across a fresh supervised fleet: death
// detection, respawn, retry, quarantine, optional journal.
func dispatch(ctx context.Context, tasks []farm.TaskSpec, o fleetOpts, stderr io.Writer) ([]farm.TaskResult, bool, error) {
	factory, err := workerFactory(o.chaos)
	if err != nil {
		return nil, false, err
	}
	var streamed int64
	onRecord := func(spec farm.TaskSpec, out campaign.PlanOutcome) {
		if n := atomic.AddInt64(&streamed, 1); n%250 == 0 {
			fmt.Fprintf(stderr, "  ... %d execution records streamed\n", n)
		}
	}

	sup := &farm.Supervisor{Factory: factory, Workers: o.workers}
	if o.verbose {
		sup.OnRecord = onRecord
		sup.Log = stderr
	}
	if o.taskDeadline > 0 {
		d := o.taskDeadline
		sup.Deadline = func(farm.TaskSpec) time.Duration { return d }
	}
	var resumed map[int]farm.ResumedTask
	if o.journalDir != "" {
		j, r, err := farm.OpenJournal(o.journalDir, farm.TasksFingerprint(tasks), o.resume)
		if err != nil {
			return nil, false, err
		}
		defer j.Close()
		sup.Journal = j
		resumed = r
		if o.resume && len(r) > 0 {
			fmt.Fprintf(stderr, "phfarm: resumed %d settled tasks from journal\n", len(r))
		}
	}
	results, report, interrupted, err := farm.RunSupervised(ctx, sup, tasks, resumed)
	if err != nil {
		return results, interrupted, err
	}
	if report.Deaths != nil || report.Retried > 0 {
		fmt.Fprintf(stderr, "phfarm: fleet: %d worker deaths, %d respawns, %d tasks retried, %d quarantined\n",
			len(report.Deaths), report.Respawns, report.Retried, len(report.Quarantined))
	}
	if o.fleetPath != "" {
		data, merr := json.MarshalIndent(report, "", "  ")
		if merr != nil {
			return results, interrupted, fmt.Errorf("phfarm: marshal fleet report: %w", merr)
		}
		if werr := os.WriteFile(o.fleetPath, append(data, '\n'), 0o644); werr != nil {
			return results, interrupted, fmt.Errorf("phfarm: write fleet report: %w", werr)
		}
	}
	return results, interrupted, nil
}

// cellConfig reconstructs the campaign.Config a single-process run of
// this cell would use — what BuildArtifact and WriteNDJSON key their
// config echoes on.
func cellConfig(base farm.TaskSpec, cov *campaign.CoverageSeed) campaign.Config {
	return campaign.Config{
		Workers:       base.Parallel,
		Seeds:         base.Seeds,
		MaxExecutions: base.MaxExecutions,
		Guided:        base.Guided,
		Collect:       true,
		KeepGoing:     base.KeepGoing,
		Explain:       base.Explain,
		EventBudget:   base.EventBudget,
		Prune:         base.Prune,
		Ranked:        base.Ranked,
		Snapshot:      base.Snapshot,
		Coverage:      cov,
	}
}

func printMatrix(w io.Writer, targets, strategies []string, merged []campaign.Result, multiSeed bool) {
	byKey := map[string]campaign.Result{}
	for _, r := range merged {
		byKey[r.Target+"/"+r.Strategy] = r
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "bug\t")
	for _, s := range strategies {
		fmt.Fprintf(tw, "%s\t", s)
	}
	fmt.Fprintln(tw)
	for _, t := range targets {
		fmt.Fprintf(tw, "%s\t", t)
		for _, s := range strategies {
			r, ok := byKey[t+"/"+s]
			switch {
			case !ok:
				fmt.Fprintf(tw, "?\t")
			case r.Detected && multiSeed:
				fmt.Fprintf(tw, "YES (%d execs, seed %d)\t", r.Campaign.Executions, r.DetectedSeed)
			case r.Detected:
				fmt.Fprintf(tw, "YES (%d execs)\t", r.Campaign.Executions)
			default:
				fmt.Fprintf(tw, "no (%d execs)\t", r.Campaign.Executions)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func runGrid(ctx context.Context, gridPath, csvPath string, fleet fleetOpts, parallel int, stdout, stderr io.Writer) int {
	g, err := farm.LoadGrid(gridPath)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	exps := g.Expand(parallel)

	// Validate every cell name once before spawning anything.
	if _, err := farm.ResolveTargets(joinNames(exps[0].Tasks, func(t farm.TaskSpec) string { return t.Target }), false); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	if _, err := farm.ResolveStrategies(joinNames(exps[0].Tasks, func(t farm.TaskSpec) string { return t.Strategy }), g.RandomSeed, g.RandomN); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}

	var tasks []farm.TaskSpec
	var expIdx []int
	for ei, exp := range exps {
		for _, t := range exp.Tasks {
			t.ID = len(tasks)
			tasks = append(tasks, t)
			expIdx = append(expIdx, ei)
		}
	}
	fmt.Fprintf(stdout, "Experiment grid %q: %d experiments, %d tasks across %d workers\n\n",
		g.Name, len(exps), len(tasks), fleet.workers)

	results, interrupted, err := dispatch(ctx, tasks, fleet, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 1
	}
	perExp := make([][]farm.TaskResult, len(exps))
	for i, tr := range results {
		perExp[expIdx[i]] = append(perExp[expIdx[i]], tr)
	}
	var rows []farm.CellSummary
	failed := false
	for ei, exp := range exps {
		merged, incomplete := farm.Collate(perExp[ei])
		rows = append(rows, farm.Summarize(g.Name, exp, merged)...)
		for _, c := range incomplete {
			fmt.Fprintf(stderr, "phfarm: experiment %s/repeat %d cell %s/%s incomplete\n",
				exp.Toggle.Name, exp.Repeat, c.Target, c.Strategy)
			failed = true
		}
	}

	farm.WriteSummaryTable(stdout, rows)
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintln(stderr, "phfarm:", err)
			return 1
		}
		if err := farm.WriteCSV(f, rows); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "phfarm:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "phfarm:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\ngrid CSV: %s (%d rows)\n", csvPath, len(rows))
	}

	if interrupted {
		fmt.Fprintln(stderr, "phfarm: interrupted; partial grid results flushed")
		return 130
	}
	if failed {
		return 1
	}
	return 0
}

// joinNames collects the distinct values of one task field, in task
// order, as a comma-separated resolver spec.
func joinNames(tasks []farm.TaskSpec, field func(farm.TaskSpec) string) string {
	seen := map[string]bool{}
	out := ""
	for _, t := range tasks {
		n := field(t)
		if seen[n] {
			continue
		}
		seen[n] = true
		if out != "" {
			out += ","
		}
		out += n
	}
	return out
}
