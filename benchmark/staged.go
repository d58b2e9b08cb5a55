package main

import (
	"sort"
	"time"

	"repro/internal/apiserver"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/infra"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The staged driver: the traced pass performs the work of an operation by
// calling the layers' public functions in sequence, one span per call.
// The program under test is not instrumented — spans are recorded here,
// around the calls into each layer — so what happens inside one call
// (Cluster.RunFor above all) stays a single span; sim.run_unattributed_pct
// says how much of it the unit-cost probes cannot explain.

// layerAcc accumulates the counts the traced pass reads at layer
// boundaries. Durations live in the tracer's spans.
type layerAcc struct {
	// Staged full replays (the only executions whose cluster the driver
	// holds, so the only ones whose counters it can read).
	execs      int
	steps      uint64 // Kernel.Steps at the horizon (build included)
	runSteps   uint64 // steps fired inside Cluster.RunFor
	sent       uint64
	dropped    uint64
	commits    int64
	serve      apiserver.ServeStats
	violations int
	apiServers int

	// Recorded traces seen (references and instrumented replays).
	traces  int
	records int

	// Pipelines (reference -> plan -> fork -> minimize -> explain).
	plansTotal, planned, deferred int
	minimizeExecs                 int
	forks, replays                int
	pairedForkMs, pairedReplayMs  []float64
	refWall, nopWall              time.Duration

	// extraWall is traced time that is measurement, not the operation's
	// own work (paired replays, the nop run, the capture/restore probe).
	extraWall time.Duration
}

// stagedExec is core.RunPlanSeed (or, instrumented, an engine execution
// with a recorder) taken apart at its layer boundaries.
func stagedExec(tr *tracer, acc *layerAcc, t core.Target, p core.Plan, seed int64, instrument bool) core.Execution {
	var exec core.Execution
	tr.do("staged.replay", func() {
		var c *infra.Cluster
		tr.do("infra.Build", func() { c = t.Build(seed) })
		k := c.World.Kernel()
		builtSteps := k.Steps()
		var rec *trace.Recorder
		if instrument {
			rec = trace.NewRecorder()
			rec.Attach(c.World.Network(), c.Store.Store())
		}
		tr.do("core.Apply", func() { p.Apply(c) })
		tr.do("infra.Workload", func() { t.Workload(c) })
		tr.do("sim.RunFor", func() { c.RunFor(t.Horizon) })
		var violations []oracle.Violation
		tr.do("oracle.Violations", func() { violations = c.Violations() })
		if rec != nil {
			tr.do("trace.StateHash", func() { probeSink += int(rec.T.StateHash() & 1) })
			acc.noteTrace(rec.T)
		}
		exec = core.Execution{Plan: p, Seed: seed, Violations: violations, Detected: c.Oracles.Violated(t.Bug)}

		acc.execs++
		acc.steps += k.Steps()
		acc.runSteps += k.Steps() - builtSteps
		ns := c.World.Network().Stats()
		acc.sent += ns.Sent
		acc.dropped += ns.Dropped
		acc.commits += c.Store.Store().Revision()
		acc.violations += len(violations)
		acc.apiServers = len(c.APIs)
		for _, api := range c.APIs {
			s := api.Stats()
			acc.serve.RelayEvents += s.RelayEvents
			acc.serve.RelaySubVisits += s.RelaySubVisits
			acc.serve.RelaySends += s.RelaySends
			acc.serve.ListServed += s.ListServed
			acc.serve.ListKeysScanned += s.ListKeysScanned
			acc.serve.DecodeHits += s.DecodeHits
			acc.serve.DecodeMisses += s.DecodeMisses
			acc.serve.WindowCompacts += s.WindowCompacts
		}
	})
	return exec
}

func (a *layerAcc) noteTrace(t *trace.Trace) {
	a.traces++
	a.records += len(t.Deliveries) + len(t.Writes) + len(t.Commits) + len(t.Lists)
}

// pipeline selects which of the tool's layers a staged operation drives,
// mirroring the engine / explorer configuration of the workload's op.
type pipeline struct {
	learn        bool // learn.Mine + learn.BuildSchedule(Prune, Rank)
	hash         bool // a StateHash per execution (instrumented signatures)
	explain      bool // minimize + explain the first detection
	stopAtDetect bool
	maxExec      int
	// schedules, when set, replaces the planner: the explorer's
	// delivery-coordinate schedules, built from the reference trace.
	schedules func(ref *trace.Trace, model *learn.Model) []core.Plan
}

// replayEvery is the stride at which an executed plan is additionally run
// as a staged full replay: the paired sample behind fork-vs-replay and the
// source of every per-execution count.
const replayEvery = 8

// stagedPipeline is one (target, seed) campaign or exploration, staged.
func stagedPipeline(tr *tracer, acc *layerAcc, t core.Target, seed int64, pl pipeline) {
	var ref *trace.Trace
	acc.refWall += tr.do("core.ReferenceSeed", func() { ref, _ = core.ReferenceSeed(t, seed) })
	tr.do("trace.StateHash", func() { probeSink += int(ref.StateHash() & 1) })
	acc.noteTrace(ref)
	// The same run without a recorder: the difference is the recording cost.
	nop := tr.do("core.RunPlanSeed.nop", func() { core.RunPlanSeed(t, core.NopPlan{}, seed) })
	acc.nopWall += nop
	acc.extraWall += nop

	var model *learn.Model
	if pl.learn || pl.schedules != nil {
		tr.do("learn.Mine", func() { model = learn.Mine(ref, 0) })
	}
	var plans []core.Plan
	if pl.schedules != nil {
		plans = pl.schedules(ref, model)
	} else {
		tr.do("core.Planner.Plans", func() { plans = core.NewPlanner().Plans(t, ref) })
		acc.plansTotal += len(plans)
	}
	if pl.learn {
		var sched *learn.Schedule
		tr.do("learn.BuildSchedule", func() {
			sched = learn.BuildSchedule(model, t, plans, learn.Options{Prune: true, Rank: true})
		})
		acc.planned += sched.Stats.Planned
		acc.deferred += sched.Stats.Pruned + sched.Stats.Deduped
		plans = plans[:0:0]
		for _, sp := range sched.Kept {
			plans = append(plans, sp.Plan)
		}
		for _, sp := range sched.Deferred {
			plans = append(plans, sp.Plan)
		}
	}
	if pl.maxExec > 0 && len(plans) > pl.maxExec {
		plans = plans[:pl.maxExec]
	}

	var forker *campaign.Forker
	tr.do("campaign.NewForker", func() {
		forker = campaign.NewForker(t, seed, ref, checkpointCandidates(plans, ref))
	})
	acc.extraWall += stagedCheckpoint(tr, t, seed)

	var detecting core.Plan
	for i, p := range plans {
		var exec core.Execution
		var pert *trace.Trace
		forkDur := tr.do("campaign.Forker.Run", func() { exec, pert = forker.Run(p) })
		if pl.hash {
			tr.do("trace.StateHash", func() { probeSink += int(pert.StateHash() & 1) })
		}
		if i%replayEvery == 0 {
			start := time.Now()
			stagedExec(tr, acc, t, p, seed, false)
			d := time.Since(start)
			acc.extraWall += d
			acc.pairedForkMs = append(acc.pairedForkMs, ms(forkDur))
			acc.pairedReplayMs = append(acc.pairedReplayMs, ms(d))
		}
		if exec.Detected && detecting == nil {
			detecting = p
			if pl.stopAtDetect {
				break
			}
		}
	}

	if pl.explain && detecting != nil {
		runner := func(_ core.Target, q core.Plan, _ int64) core.Execution {
			var exec core.Execution
			tr.do("campaign.Forker.Run", func() { exec, _ = forker.Run(q) })
			return exec
		}
		var minimal core.Plan
		tr.do("core.MinimizeSeedRun", func() {
			var execs int
			minimal, execs = core.MinimizeSeedRun(t, detecting, seed, runner)
			if sp, ok := minimal.(core.StalenessPlan); ok {
				narrowed, more := core.NarrowWindowSeedRun(t, sp, seed, runner)
				minimal, execs = narrowed, execs+more
			}
			acc.minimizeExecs += execs
		})
		var mexec core.Execution
		var mtr *trace.Trace
		tr.do("campaign.Forker.Run", func() { mexec, mtr = forker.Run(minimal) })
		tr.do("explain.FromTraces", func() {
			if e := explain.FromTraces(t, minimal, seed, ref, mtr, mexec.Violations); e != nil {
				probeSink += len(e.Chain)
			}
		})
	}
	acc.forks += forker.Forks
	acc.replays += forker.Replays
}

// checkpointCandidates picks up to 11 distinct earliest-effect times of
// the plans, evenly by rank — the same hint the engine's checkpoint ladder
// and the explorer give the fork substrate.
func checkpointCandidates(plans []core.Plan, ref *trace.Trace) []sim.Time {
	seen := map[sim.Time]bool{}
	var times []sim.Time
	for _, p := range plans {
		if at, ok := core.EarliestEffect(p, ref); ok && !seen[at] {
			seen[at] = true
			times = append(times, at)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	const maxRungs = 11
	if len(times) <= maxRungs {
		return times
	}
	out := make([]sim.Time, 0, maxRungs)
	for i := 0; i < maxRungs; i++ {
		out = append(out, times[i*(len(times)-1)/(maxRungs-1)])
	}
	return out
}

// stagedCheckpoint times one Cluster.Capture and one Snapshot.NewCluster
// at mid-horizon — the two calls every fork is made of, which the fork
// substrate performs internally where the driver cannot span them.
func stagedCheckpoint(tr *tracer, t core.Target, seed int64) time.Duration {
	return tr.do("staged.checkpoint", func() {
		c := t.Build(seed)
		t.Workload(c)
		c.RunFor(t.Horizon / 2)
		var snap *infra.Snapshot
		for attempt := 0; attempt < 25 && snap == nil; attempt++ {
			// A non-quiescent instant refuses capture; slide 1 ms, as
			// the engine's ladder does.
			if attempt > 0 {
				c.RunFor(sim.Millisecond)
			}
			tr.doAs(func() string {
				s, ok := c.Capture()
				if !ok {
					return "infra.Capture.refused"
				}
				snap = s
				return "infra.Capture"
			})
		}
		if snap != nil {
			tr.do("infra.Snapshot.NewCluster", func() {
				if rc, err := snap.NewCluster(); err == nil {
					probeSink += len(rc.APIs)
				}
			})
		}
	})
}
