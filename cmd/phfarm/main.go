// Command phfarm runs campaign fleets: the same bug-finding campaigns
// as phtest, sharded across worker subprocesses by a coordinator that
// merges the shards back into byte-identical artifacts.
//
// Three modes:
//
//	phfarm [phtest's campaign flags] [-workers N] [-journal dir [-resume]]
//	       [-fleet report.json] [-chaos script] [-task-deadline D]
//	                           coordinator: shard the (target × seed)
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
// The campaign flags, their rules and the outputs are phtest's, declared
// once by internal/farm.RegisterFlags, checked by farm.TaskSpec.Validate
// (exit 2) and written by farm.Outputs. -corpus dir maintains a
// persistent cross-campaign corpus: each campaign seeds from it (known
// buckets re-confirm first, recorded healthy plans are skipped) and
// records into it when done.
//
// SIGINT/SIGTERM kill the fleet, flush the cells that completed as a
// valid artifact marked "interrupted": true, and exit 130.
package main

import (
	"bytes"
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
	"time"

	"repro/internal/campaign"
	"repro/internal/farm"
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
	f := farm.RegisterFlags(fs)
	worker := fs.Bool("worker", false, "run as a farm worker serving tasks on stdin/stdout (internal)")
	gridPath := fs.String("grid", "", "run the experiment grid in this JSON file")
	csvPath := fs.String("csv", "", "write the grid's deterministic per-cell CSV to this path (grid mode)")
	var fleet fleetOpts
	fs.IntVar(&fleet.workers, "workers", 2, "number of worker processes")
	fs.StringVar(&fleet.journalDir, "journal", "", "coordinator journal directory (one fsynced line per settled task)")
	fs.BoolVar(&fleet.resume, "resume", false, "resume a killed run from its -journal, re-dispatching only unsettled tasks")
	fs.StringVar(&fleet.fleetPath, "fleet", "", "write the fleet supervision report (deaths, respawns, retries) to this JSON path")
	chaosFlag := fs.String("chaos", "", "inject scripted worker faults, e.g. 'kill@4,stall@9,torn@6' (slot i's first spawn gets entry i; testing)")
	fs.DurationVar(&fleet.taskDeadline, "task-deadline", 0, "per-task completion deadline before the worker is declared stalled (0 = scaled default)")
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
	if err := f.Spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	if fleet.workers < 1 {
		fmt.Fprintln(stderr, "phfarm: -workers must be >= 1")
		return 2
	}
	if fleet.resume && fleet.journalDir == "" {
		fmt.Fprintln(stderr, "phfarm: -resume requires -journal")
		return 2
	}
	var err error
	if fleet.chaos, err = farm.ParseChaos(*chaosFlag); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	fleet.verbose = f.Verbose

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gridPath != "" {
		return runGrid(ctx, *gridPath, *csvPath, fleet, f.Spec.Parallel, stdout, stderr)
	}
	return runMatrix(ctx, f, fleet, stdout, stderr)
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

func runMatrix(ctx context.Context, f *farm.Flags, fleet fleetOpts, stdout, stderr io.Writer) int {
	// Resolve up front so bad names fail before any worker spawns.
	cells, targets, strategies, err := f.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := f.Out.LoadCorpus(cells); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 1
	}
	tasks := farm.Shard(cells)

	fmt.Fprintf(stdout, "Campaign fleet: %d tasks across %d workers\n", len(tasks), fleet.workers)
	fmt.Fprintf(stdout, "targets=%d strategies=%d max-executions=%d seeds=%v guided=%v prune=%v ranked=%v snapshot=%v corpus=%v\n\n",
		len(targets), len(strategies), f.Spec.MaxExecutions, f.Spec.Seeds,
		f.Spec.Guided, f.Spec.Prune, f.Spec.Ranked, f.Spec.Snapshot, f.Out.CorpusDir != "")

	results, interrupted, err := dispatch(ctx, tasks, fleet, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 1
	}
	merged, incomplete := farm.Collate(results)

	farm.WriteMatrix(stdout, targets, strategies, merged, len(f.Spec.Seeds) > 1)
	if f.Verbose {
		for _, res := range merged {
			farm.WriteCampaign(stdout, res)
		}
	}
	for _, c := range incomplete {
		fmt.Fprintf(stderr, "phfarm: cell %s/%s incomplete (worker failed or run interrupted)\n", c.Target, c.Strategy)
	}
	if err := f.Out.Write(stdout, cells, merged, interrupted); err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 1
	}
	if interrupted {
		fmt.Fprintln(stderr, "phfarm: interrupted; partial results flushed")
		return 130
	}
	if reportTasks(results, stderr) {
		return 1
	}
	return 0
}

// reportTasks names every failed and every quarantined task on stderr and
// reports whether any task failed. Quarantine is a recorded failure, not
// an abort: the run succeeds, the poisoned cell's artifact says what
// happened, and the operator hears about it here.
func reportTasks(results []farm.TaskResult, stderr io.Writer) (failed bool) {
	for _, tr := range results {
		switch {
		case tr.Err != "":
			fmt.Fprintf(stderr, "phfarm: task %d (%s/%s) failed: %s\n", tr.Spec.ID, tr.Spec.Target, tr.Spec.Strategy, tr.Err)
			failed = true
		case tr.Quarantine != nil:
			fmt.Fprintf(stderr, "phfarm: task %d (%s/%s) quarantined: %s\n",
				tr.Spec.ID, tr.Spec.Target, tr.Spec.Strategy, tr.Quarantine.Detail)
		}
	}
	return failed
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

func runGrid(ctx context.Context, gridPath, csvPath string, fleet fleetOpts, parallel int, stdout, stderr io.Writer) int {
	g, err := farm.LoadGrid(gridPath)
	if err != nil {
		fmt.Fprintln(stderr, "phfarm:", err)
		return 2
	}
	exps := g.Expand(parallel)

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
		var csv bytes.Buffer
		farm.WriteCSV(&csv, rows) // writes to a bytes.Buffer cannot fail
		if err := os.WriteFile(csvPath, csv.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "phfarm:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\ngrid CSV: %s (%d rows)\n", csvPath, len(rows))
	}

	if interrupted {
		fmt.Fprintln(stderr, "phfarm: interrupted; partial grid results flushed")
		return 130
	}
	if reportTasks(results, stderr) || failed {
		return 1
	}
	return 0
}
