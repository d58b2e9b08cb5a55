package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/apiserver"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/farm"
	"repro/internal/infra"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// An instance is one set-up workload: a closed loop's worth of
// seed-derived operations against the tool's user-facing entry points.
// Operation i's world seed is seed*1000+i; the program under test only
// ever sees generated targets, plans and seeds.
type instance interface {
	// run executes operation i — the timed call.
	run(i int) any
	// check validates run's output (untimed, cheap: counters only). It
	// returns the cluster executions the tool itself counted, and what
	// verify needs after the window (nil: nothing to verify).
	check(i int, out any) (execs int, keep any, err error)
	// verify is the expensive half of the output check, run after the
	// timed window on what check kept: differential re-execution on the
	// reference path, witness replay.
	verify(i int, kept any) error
	// traced performs operation i through the staged driver.
	traced(tr *tracer, acc *layerAcc, i int)
	// extras measures the workload's engine/fleet/explorer-level layer
	// metrics on operations [0,k) — base is their untraced run — and
	// merges them into m.
	extras(tr *tracer, k int, base baseline, m map[string]float64) error
}

type workloadDef struct {
	spec workloadSpec
	workloadImpl
}

type workloadImpl struct {
	// tracedOps is how many operations the traced pass stages: fixed, so
	// the exact per-layer counts repeat run to run.
	tracedOps int
	// setup builds everything operations reuse and runs the warm-up pass.
	setup func(seed int64) (instance, error)
}

var workloadImpls = map[string]workloadImpl{
	"campaign-small-world": {12, func(seed int64) (instance, error) {
		return newCampaignInst(seed, 40, false, workload.Target59848(), workload.Target56261())
	}},
	// The operator targets' reference keeps snapshots on: on the seed
	// commit about 6% of these campaigns lose a ScaleDownCompletes
	// violation when the "drop DELETED pods/cass-N" plan is forked rather
	// than replayed (README, first findings), so the Snapshot:false
	// promise cannot serve as their oracle yet. The traced pass counts the
	// divergences as campaign.snapshot_divergences.
	"campaign-operator": {12, func(seed int64) (instance, error) {
		return newCampaignInst(seed, 5, true, workload.TargetCass398(), workload.TargetCass400(), workload.TargetCass402())
	}},
	"fleet-detect":    {6, newFleetInst},
	"explore-certify": {12, newExploreInst},
	"scale-serving":   {15, newScaleInst},
}

// workloadDefs pairs every workload of the vocabulary (spec.go) with its
// implementation, in vocabulary order.
func workloadDefs() []workloadDef {
	defs := make([]workloadDef, len(workloadSpecs))
	for i, spec := range workloadSpecs {
		defs[i] = workloadDef{spec, workloadImpls[spec.Name]}
	}
	return defs
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs() {
		if d.spec.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// sampled reports whether operation i belongs to the fixed sample that is
// re-executed on the reference path after the window: every tenth
// operation, the first ten of them (so the untimed tail of a run stays
// bounded however many operations a fast host completes).
func sampled(i int) bool { return i%10 == 0 && i < 100 }

// keepIfSampled is what check hands to verify: out for a sampled
// operation, nothing otherwise.
func keepIfSampled(i int, out any) any {
	if sampled(i) {
		return out
	}
	return nil
}

// poolWidth is the tool's own pool in every workload that has one: engine
// workers, fleet width.
const poolWidth = 2

func worldSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func healthy(st campaign.Stats) error {
	switch {
	case st.FailedExecutions != 0:
		return fmt.Errorf("%d failed executions", st.FailedExecutions)
	case st.HungExecutions != 0:
		return fmt.Errorf("%d hung executions", st.HungExecutions)
	case st.SnapshotFallbacks != nil:
		return fmt.Errorf("snapshot fallbacks %+v", *st.SnapshotFallbacks)
	}
	return nil
}

// ---- campaign-small-world, campaign-operator ----

// campaignInst: one op = Engine.Matrix over the workload's targets (the
// phtest -targets a,b path), every target swept under the op's world seed
// with KeepGoing, so each op performs the same number of executions.
type campaignInst struct {
	seed    int64
	maxExec int
	// refSnapshot is the reference path's Snapshot setting (its Workers
	// is always 1).
	refSnapshot bool
	targets     []core.Target
}

func newCampaignInst(seed int64, maxExec int, refSnapshot bool, targets ...core.Target) (instance, error) {
	c := &campaignInst{seed: seed, maxExec: maxExec, refSnapshot: refSnapshot, targets: targets}
	return c, warmUp(c, -1)
}

func warmUp(inst instance, i int) error {
	if _, _, err := inst.check(i, inst.run(i)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (c *campaignInst) config(i, workers int, snapshot bool) campaign.Config {
	return campaign.Config{
		Workers:       workers,
		Seeds:         []int64{worldSeed(c.seed, i)},
		MaxExecutions: c.maxExec,
		KeepGoing:     true,
		Snapshot:      snapshot,
	}
}

func (c *campaignInst) matrix(cfg campaign.Config) []campaign.Result {
	return campaign.New(cfg).Matrix(c.targets, []core.Strategy{core.NewPlanner()})
}

func (c *campaignInst) run(i int) any { return c.matrix(c.config(i, poolWidth, true)) }

func (c *campaignInst) check(i int, out any) (int, any, error) {
	results := out.([]campaign.Result)
	execs := 0
	for _, r := range results {
		if err := healthy(r.Stats); err != nil {
			return 0, nil, fmt.Errorf("%s: %w", r.Target, err)
		}
		// KeepGoing: the reference run plus exactly maxExec plans.
		if r.Stats.RawExecutions != c.maxExec+1 {
			return 0, nil, fmt.Errorf("%s: %d executions, want %d", r.Target, r.Stats.RawExecutions, c.maxExec+1)
		}
		execs += r.Stats.RawExecutions
	}
	return execs, keepIfSampled(i, results), nil
}

// verify re-runs the op on the reference path — one worker, and without
// snapshots where that promise holds — and demands the canonicalized
// results be equal: the engine's own byte-identity promises are the
// oracle.
func (c *campaignInst) verify(i int, kept any) error {
	got := kept.([]campaign.Result)
	want := c.matrix(c.config(i, 1, c.refSnapshot))
	for j := range want {
		if !sameResult(got[j], want[j]) {
			return fmt.Errorf("%s: result differs from the Workers:1, Snapshot:%v reference", want[j].Target, c.refSnapshot)
		}
	}
	return nil
}

func sameResult(a, b campaign.Result) bool {
	return reflect.DeepEqual(campaign.Canonicalize(a), campaign.Canonicalize(b))
}

func (c *campaignInst) traced(tr *tracer, acc *layerAcc, i int) {
	for _, t := range c.targets {
		stagedPipeline(tr, acc, t, worldSeed(c.seed, i), pipeline{maxExec: c.maxExec})
	}
}

func (c *campaignInst) extras(tr *tracer, k int, base baseline, m map[string]float64) error {
	fallbacks := 0
	for _, out := range base.outs {
		for _, r := range out.([]campaign.Result) {
			if fb := r.Stats.SnapshotFallbacks; fb != nil {
				fallbacks += fb.Unsnapshotable + fb.StrictPast + fb.RestoreError + fb.Watchdog
			}
		}
	}
	var w1 float64
	divergences := 0
	for i := 0; i < k; i++ {
		var forked []campaign.Result
		w1 += ms(tr.op(i, "campaign.Engine.Matrix.w1", func() { forked = c.matrix(c.config(i, 1, true)) }))
		for j, replayed := range c.matrix(c.config(i, 1, false)) {
			if !sameResult(forked[j], replayed) {
				divergences++
			}
		}
	}
	m["campaign.snapshot_divergences"] = float64(divergences)
	// The encoders only have work on a collected run (phtest -json /
	// -ndjson); two ops' worth is enough for a mean.
	for i := 0; i < k && i < 2; i++ {
		cfg := c.config(i, 1, true)
		cfg.Collect = true
		for _, r := range c.matrix(cfg) {
			if err := stagedEncode(tr, r, cfg); err != nil {
				return err
			}
		}
	}
	// What a second worker buys once it has a core of its own, which the
	// measured passes withhold: the same ops at one worker and at two.
	var par1, par2 float64
	withCores(poolWidth, func() {
		for i := 0; i < k; i++ {
			par1 += ms(tr.op(i, "campaign.Engine.Matrix.cores2.w1", func() { c.matrix(c.config(i, 1, true)) }))
			par2 += ms(tr.op(i, "campaign.Engine.Matrix.cores2.w2", func() { c.matrix(c.config(i, poolWidth, true)) }))
		}
	})
	m["campaign.fallbacks"] = float64(fallbacks)
	m["campaign.parallel_efficiency"] = par1 / (poolWidth * par2)
	m["campaign.engine_overhead_pct"] = (w1/base.stagedMs - 1) * 100
	encodeMetrics(tr, m)
	return nil
}

func encodeMetrics(tr *tracer, m map[string]float64) {
	m["campaign.artifact_encode_ms"] = ms(tr.mean("campaign.BuildArtifact+encode"))
	m["campaign.ndjson_encode_ms"] = ms(tr.mean("campaign.WriteNDJSON"))
}

// stagedEncode times the two output encoders on one result.
func stagedEncode(tr *tracer, r campaign.Result, cfg campaign.Config) error {
	var err error
	tr.do("campaign.BuildArtifact+encode", func() {
		var data []byte
		data, err = json.Marshal(campaign.BuildArtifact(r, cfg))
		probeSink += len(data)
	})
	if err != nil {
		return fmt.Errorf("encode artifact: %w", err)
	}
	tr.do("campaign.WriteNDJSON", func() {
		var buf bytes.Buffer
		err = campaign.WriteNDJSON(&buf, r, cfg)
		probeSink += buf.Len()
	})
	if err != nil {
		return fmt.Errorf("encode ndjson: %w", err)
	}
	return nil
}

// ---- fleet-detect ----

var fleetTargets = []string{"k8s-59848", "k8s-56261", "cass-op-398", "cass-op-400"}

// fleetInst: one op = phfarm's path end to end — plan the matrix, run it
// supervised on two in-process workers, collate, build and encode the
// artifacts — with every smart layer on and early cancel at detection.
type fleetInst struct {
	seed    int64
	targets []core.Target // fleetTargets, resolved
}

type fleetOut struct {
	merged     []campaign.Result
	incomplete []farm.Cell
	report     farm.FleetReport
	err        error
}

func newFleetInst(seed int64) (instance, error) {
	f := &fleetInst{seed: seed}
	for _, name := range fleetTargets {
		t, err := farm.ResolveTarget(name, false)
		if err != nil {
			return nil, err
		}
		f.targets = append(f.targets, t)
	}
	return f, warmUp(f, -1)
}

func (f *fleetInst) base(i int) farm.TaskSpec {
	return farm.TaskSpec{
		Seeds: []int64{worldSeed(f.seed, i)}, MaxExecutions: 400, Parallel: 1,
		Guided: true, Prune: true, Ranked: true, Snapshot: true, Explain: true,
	}
}

// cellConfig is the campaign.Config a single-process run of a cell uses
// (what phfarm keys BuildArtifact on).
func cellConfig(base farm.TaskSpec) campaign.Config {
	return campaign.Config{
		Workers: base.Parallel, Seeds: base.Seeds, MaxExecutions: base.MaxExecutions,
		Guided: base.Guided, Collect: true, Explain: base.Explain,
		Prune: base.Prune, Ranked: base.Ranked, Snapshot: base.Snapshot,
	}
}

func supervised(width int, tasks []farm.TaskSpec) ([]farm.TaskResult, farm.FleetReport, error) {
	sup := &farm.Supervisor{
		Factory: func(int, int) farm.Transport { return farm.NewInProcTransport() },
		Workers: width,
	}
	results, report, _, err := farm.RunSupervised(context.Background(), sup, tasks, nil)
	return results, report, err
}

func (f *fleetInst) runWidth(i, width int) fleetOut {
	var out fleetOut
	base := f.base(i)
	tasks := farm.Plan(fleetTargets, []string{"partial-history"}, base)
	results, report, err := supervised(width, tasks)
	if err != nil {
		out.err = err
		return out
	}
	out.report = report
	out.merged, out.incomplete = farm.Collate(results)
	for _, r := range out.merged {
		data, err := json.Marshal(campaign.BuildArtifact(r, cellConfig(base)))
		if err != nil {
			out.err = err
			return out
		}
		probeSink += len(data)
	}
	return out
}

func (f *fleetInst) run(i int) any { return f.runWidth(i, poolWidth) }

func (f *fleetInst) check(i int, o any) (int, any, error) {
	out := o.(fleetOut)
	switch {
	case out.err != nil:
		return 0, nil, out.err
	case len(out.incomplete) != 0:
		return 0, nil, fmt.Errorf("incomplete cells %v", out.incomplete)
	case len(out.merged) != len(fleetTargets):
		return 0, nil, fmt.Errorf("%d merged cells, want %d", len(out.merged), len(fleetTargets))
	case len(out.report.Deaths) != 0 || out.report.Retried != 0 || len(out.report.Quarantined) != 0:
		return 0, nil, fmt.Errorf("fleet faults on a fault-free run: %+v", out.report)
	}
	execs := 0
	for _, r := range out.merged {
		if err := healthy(r.Stats); err != nil {
			return 0, nil, fmt.Errorf("%s: %w", r.Target, err)
		}
		if !r.Detected || r.Stats.ExplainedBuckets == 0 {
			return 0, nil, fmt.Errorf("%s: detected=%v explained=%d, want a detection with an explanation",
				r.Target, r.Detected, r.Stats.ExplainedBuckets)
		}
		if r.Stats.PruningUnsoundDetections != 0 {
			return 0, nil, fmt.Errorf("%s: %d unsound prunes", r.Target, r.Stats.PruningUnsoundDetections)
		}
		execs += r.Stats.RawExecutions + r.Stats.MinimizeExecutions
	}
	return execs, keepIfSampled(i, out.merged), nil
}

// verify re-runs every cell on a single-process engine and demands
// byte-equal canonical artifacts: the farm-equals-serial promise.
// (Snapshots stay on in the reference: two of the cells are operator
// targets, see workloadImpls.)
func (f *fleetInst) verify(i int, kept any) error {
	merged := kept.([]campaign.Result)
	base := f.base(i)
	for j, t := range f.targets {
		cfg := cellConfig(base)
		ref := campaign.New(cfg).Run(t, core.NewPlanner())
		want, err := json.Marshal(campaign.CanonicalizeArtifact(campaign.BuildArtifact(ref, cfg)))
		if err != nil {
			return err
		}
		got, err := json.Marshal(campaign.CanonicalizeArtifact(campaign.BuildArtifact(merged[j], cfg)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: fleet artifact differs from the single-process reference", t.Name)
		}
	}
	return nil
}

func (f *fleetInst) traced(tr *tracer, acc *layerAcc, i int) {
	for _, t := range f.targets {
		stagedPipeline(tr, acc, t, worldSeed(f.seed, i), pipeline{
			learn: true, hash: true, explain: true, stopAtDetect: true, maxExec: 400,
		})
	}
}

func (f *fleetInst) extras(tr *tracer, k int, base baseline, m map[string]float64) error {
	retries := 0
	for _, out := range base.outs {
		retries += out.(fleetOut).report.Retried
	}
	var direct, single float64
	tasksRun, resultBytes := 0, 0
	for i := 0; i < k; i++ {
		specBase := f.base(i)
		for _, spec := range farm.Plan(fleetTargets, []string{"partial-history"}, specBase) {
			// The same task run directly and through a one-worker fleet:
			// the difference is spawn, handshake, framing, streaming.
			var res campaign.Result
			var err error
			direct += ms(tr.op(i, "farm.RunTask", func() { res, err = farm.RunTask(spec, nil) }))
			if err != nil {
				return err
			}
			spec.ID = 0
			var trs []farm.TaskResult
			single += ms(tr.op(i, "farm.RunSupervised.task", func() { trs, _, err = supervised(1, []farm.TaskSpec{spec}) }))
			if err != nil {
				return err
			}
			// Canonicalized, so that the size is a pure function of the
			// seed: wall-clock fields vary in their digits.
			data, err := json.Marshal(campaign.Canonicalize(res))
			if err != nil {
				return err
			}
			resultBytes += len(data)
			tasksRun++
			tr.op(i, "farm.Collate", func() {
				merged, _ := farm.Collate(trs)
				probeSink += len(merged)
			})
			if err := stagedEncode(tr, res, cellConfig(specBase)); err != nil {
				return err
			}
		}
	}
	m["farm.task_overhead_ms"] = (single - direct) / float64(tasksRun)
	m["farm.result_bytes_per_task"] = float64(resultBytes) / float64(tasksRun)
	// Width 2 against width 1, each worker with a core of its own.
	var par1, par2 float64
	var err error
	withCores(poolWidth, func() {
		for i := 0; i < k && err == nil; i++ {
			par1 += ms(tr.op(i, "farm.op.cores2.width1", func() { err = f.runWidth(i, 1).err }))
			par2 += ms(tr.op(i, "farm.op.cores2.width2", func() { f.runWidth(i, poolWidth) }))
		}
	})
	if err != nil {
		return err
	}
	m["farm.width_efficiency"] = par1 / (poolWidth * par2)
	m["farm.retries"] = float64(retries)
	m["farm.merge_ms"] = ms(tr.mean("farm.Collate"))
	encodeMetrics(tr, m)
	return nil
}

// ---- explore-certify ----

// exploreInst: one op = two explorations under the op's world seed, one
// that ends in a no-violation certificate and one that ends in a witness.
type exploreInst struct {
	seed    int64
	certify explore.Config // k8s-59848: every schedule of <= 2 drops
	witness explore.Config // cass-op-398: 1 drop + 1 delay from the scale-down on
}

func newExploreInst(seed int64) (instance, error) {
	e := &exploreInst{
		seed: seed,
		certify: explore.Config{Target: workload.Target59848(), POR: true, Snapshot: true,
			Bounds: explore.Bounds{Drops: 2}},
		witness: explore.Config{Target: workload.TargetCass398(), POR: true, Snapshot: true,
			Bounds: explore.Bounds{Drops: 1, Delays: 1, Start: sim.Time(4 * sim.Second)}},
	}
	return e, warmUp(e, -1)
}

func (e *exploreInst) pair(i int, certifySnapshot bool) [2]*explore.Result {
	c, w := e.certify, e.witness
	c.Seed, w.Seed = worldSeed(e.seed, i), worldSeed(e.seed, i)
	c.Snapshot = certifySnapshot
	return [2]*explore.Result{explore.Run(c), explore.Run(w)}
}

func (e *exploreInst) run(i int) any { return e.pair(i, true) }

type exploreKept struct {
	pair    [2]*explore.Result
	sampled bool
}

func (e *exploreInst) check(i int, out any) (int, any, error) {
	pair := out.([2]*explore.Result)
	cert, wit := pair[0], pair[1]
	if cert.Outcome != explore.OutcomeCertificate || cert.Certificate == nil {
		return 0, nil, fmt.Errorf("%s: outcome %q, want a certificate", e.certify.Target.Name, cert.Outcome)
	}
	if st := cert.Stats; st.SchedulesExecuted+st.SchedulesCollapsed != st.ScheduleSpace {
		return 0, nil, fmt.Errorf("certificate: executed %d + collapsed %d != space %d",
			st.SchedulesExecuted, st.SchedulesCollapsed, st.ScheduleSpace)
	}
	if wit.Outcome != explore.OutcomeViolation || wit.Witness == nil {
		return 0, nil, fmt.Errorf("%s: outcome %q, want a witness", e.witness.Target.Name, wit.Outcome)
	}
	for _, r := range pair {
		if r.Replays != 0 && r.Forks == 0 {
			return 0, nil, fmt.Errorf("explorer never forked (%d replays): snapshot substrate is down", r.Replays)
		}
	}
	// Executions as the explorer counts them, plus the witness's
	// minimization probes and its one instrumented re-execution.
	execs := int(cert.Stats.SchedulesExecuted+wit.Stats.SchedulesExecuted) + wit.Witness.MinimizeExecs + 1
	return execs, exploreKept{pair, sampled(i)}, nil
}

// verify replays every witness through plain core.RunPlanSeed — sharing
// neither the explorer's fork substrate nor its recorder — and, on the
// sample, repeats both explorations and demands identical results: the
// certificate without snapshots (the explorer's snapshot-on/off promise),
// the witness as it ran (an operator target, see workloadImpls: only
// determinism is demanded of it).
func (e *exploreInst) verify(i int, k any) error {
	kept := k.(exploreKept)
	wit := kept.pair[1].Witness
	plan, err := parseSchedule(wit.MinimalID)
	if err != nil {
		return fmt.Errorf("witness %q: %w", wit.MinimalID, err)
	}
	t := e.witness.Target
	if exec := core.RunPlanSeed(t, plan, worldSeed(e.seed, i)); !exec.Detected {
		return fmt.Errorf("witness %q does not violate %s on replay", wit.MinimalID, t.Bug)
	}
	if !kept.sampled {
		return nil
	}
	for j, ref := range e.pair(i, false) {
		got := *kept.pair[j]
		// How executions were served is the one host-side detail.
		got.Forks, got.Replays, ref.Forks, ref.Replays = 0, 0, 0, 0
		if !reflect.DeepEqual(got, *ref) {
			return fmt.Errorf("exploration %d differs on re-execution", j)
		}
	}
	return nil
}

// parseSchedule rebuilds the delivery-coordinate plan an explorer witness
// names by ID: "dropdel/<victim>/<kind>/<name>/<type>#<n>",
// "delaydel/...#<n>+<delay>", or "seq/explore[<id>,<id>...]".
func parseSchedule(id string) (core.Plan, error) {
	if rest, ok := strings.CutPrefix(id, "seq/explore["); ok {
		rest, ok = strings.CutSuffix(rest, "]")
		if !ok {
			return nil, fmt.Errorf("unterminated sequence")
		}
		seq := core.SequencePlan{Name: "explore"}
		if rest == "" {
			return seq, nil
		}
		for _, part := range strings.Split(rest, ",") {
			p, err := parseSchedule(part)
			if err != nil {
				return nil, err
			}
			seq.Plans = append(seq.Plans, p)
		}
		return seq, nil
	}
	family, coord, ok := strings.Cut(id, "/")
	if !ok || (family != "dropdel" && family != "delaydel") {
		return nil, fmt.Errorf("unknown plan family in %q", id)
	}
	coord, tail, ok := strings.Cut(coord, "#")
	if !ok {
		return nil, fmt.Errorf("no occurrence in %q", id)
	}
	parts := strings.Split(coord, "/")
	if len(parts) < 4 {
		return nil, fmt.Errorf("short coordinate in %q", id)
	}
	victim, kind := sim.NodeID(parts[0]), cluster.Kind(parts[1])
	name := strings.Join(parts[2:len(parts)-1], "/")
	typ := apiserver.EventType(parts[len(parts)-1])
	occText, delayText, delayed := strings.Cut(tail, "+")
	occ, err := strconv.Atoi(occText)
	if err != nil || occ < 1 {
		return nil, fmt.Errorf("bad occurrence in %q", id)
	}
	if family == "dropdel" {
		return core.DropDeliveryPlan{Victim: victim, Kind: kind, Name: name, Type: typ, Occurrence: occ}, nil
	}
	if !delayed {
		return nil, fmt.Errorf("no delay in %q", id)
	}
	delay, err := parseSimDuration(delayText)
	if err != nil {
		return nil, fmt.Errorf("bad delay in %q: %w", id, err)
	}
	return core.DelayDeliveryPlan{Victim: victim, Kind: kind, Name: name, Type: typ, Occurrence: occ, Delay: delay}, nil
}

// parseSimDuration inverts sim.Duration.String ("%.6fs").
func parseSimDuration(text string) (sim.Duration, error) {
	secs, ok := strings.CutSuffix(text, "s")
	if !ok {
		return 0, fmt.Errorf("no unit in %q", text)
	}
	f, err := strconv.ParseFloat(secs, 64)
	if err != nil {
		return 0, err
	}
	return sim.Duration(math.Round(f * float64(sim.Second))), nil
}

func (e *exploreInst) traced(tr *tracer, acc *layerAcc, i int) {
	for _, cfg := range []explore.Config{e.certify, e.witness} {
		b := cfg.Bounds
		stagedPipeline(tr, acc, cfg.Target, worldSeed(e.seed, i), pipeline{
			hash: true, explain: true, stopAtDetect: true, maxExec: 96,
			schedules: func(ref *trace.Trace, model *learn.Model) []core.Plan {
				return exploreSchedules(ref, model, b)
			},
		})
	}
}

// exploreSchedules enumerates the explorer's schedule space the way its
// DFS walks it: one drop and/or delay decision per consumed watch
// delivery in the window, in trace order, composed depth-first and only
// forward, within the bound's per-kind budgets. The explorer's
// visited-state pruning and its commuting-delay reduction are internal to
// it, so the staged list is the space they prune from.
func exploreSchedules(ref *trace.Trace, model *learn.Model, b explore.Bounds) []core.Plan {
	type decision struct {
		plan  core.Plan
		delay bool
	}
	var decisions []decision
	for _, d := range ref.Deliveries {
		if d.To == "admin" || d.Time < b.Start || !model.ConsumedDelivery(d) {
			continue
		}
		if b.Drops > 0 {
			decisions = append(decisions, decision{plan: core.DropDeliveryPlan{
				Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence}})
		}
		if b.Delays > 0 {
			decisions = append(decisions, decision{delay: true, plan: core.DelayDeliveryPlan{
				Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence,
				Delay: explore.DefaultDelay}})
		}
	}
	var out []core.Plan
	var dfs func(prefix []core.Plan, next, drops, delays int)
	dfs = func(prefix []core.Plan, next, drops, delays int) {
		for j := next; j < len(decisions); j++ {
			dr, de := drops, delays
			if decisions[j].delay {
				de--
			} else {
				dr--
			}
			if dr < 0 || de < 0 {
				continue
			}
			plans := append(prefix[:len(prefix):len(prefix)], decisions[j].plan)
			out = append(out, core.SequencePlan{Name: "explore", Plans: plans})
			dfs(plans, j+1, dr, de)
		}
	}
	dfs(nil, 0, b.Drops, b.Delays)
	return out
}

func (e *exploreInst) extras(_ *tracer, k int, base baseline, m map[string]float64) error {
	var st explore.Stats
	forks, replays := 0, 0
	for _, out := range base.outs {
		for _, r := range out.([2]*explore.Result) {
			st.SchedulesExecuted += r.Stats.SchedulesExecuted
			st.SchedulesCollapsed += r.Stats.SchedulesCollapsed
			st.ScheduleSpace += r.Stats.ScheduleSpace
			st.StatesVisited += r.Stats.StatesVisited
			forks += r.Forks
			replays += r.Replays
		}
	}
	m["explore.schedules_per_s"] = float64(st.SchedulesExecuted) / (base.wallMs / 1e3)
	m["explore.collapsed_ratio"] = float64(st.SchedulesCollapsed) / float64(st.ScheduleSpace)
	m["explore.states_visited"] = float64(st.StatesVisited) / float64(k)
	m["explore.fork_ratio"] = float64(forks) / float64(forks+replays)
	return nil
}

// ---- scale-serving ----

// scaleInst: one op = core.RunPlanSeed of one planner plan on a 50-node
// racked world. Four ops in five drain a rack (scheduler-heavy), the fifth
// rolls a rack's nodes (kubelet- and relay-heavy). Set-up does the two
// reference runs and the planning that every op reuses.
type scaleInst struct {
	seed  int64 // world seed of every op: plans are coordinates in its reference run
	kinds [2]scaleKind
	// last is the cluster the most recent op built; exec reads its
	// counters after RunPlanSeed returns.
	last *infra.Cluster
}

type scaleKind struct {
	target core.Target
	plans  []core.Plan
}

// scalePlans is how many distinct plans each kind cycles through.
const scalePlans = 64

var scaleProfile = workload.ScaleProfile{Racks: 10, NodesPerRack: 5}

type scaleOut struct {
	exec  core.Execution
	steps uint64
	net   sim.NetStats
	panic any
}

func newScaleInst(seed int64) (instance, error) {
	s := &scaleInst{seed: worldSeed(seed, 0)}
	for k, t := range []core.Target{workload.ScaleRackDrainTarget(scaleProfile), workload.ScaleReplaceTarget(scaleProfile)} {
		ref, violations := core.ReferenceSeed(t, s.seed)
		if len(violations) != 0 {
			return nil, fmt.Errorf("%s: reference run violates %s", t.Name, violations[0].Oracle)
		}
		plans := core.NewPlanner().Plans(t, ref)
		if len(plans) < scalePlans {
			return nil, fmt.Errorf("%s: planner produced %d plans, want >= %d", t.Name, len(plans), scalePlans)
		}
		s.kinds[k] = scaleKind{target: t, plans: plans[:scalePlans]}
	}
	// Warm-up: one op of each kind.
	for k := range s.kinds {
		if _, _, err := s.check(-1, s.exec(s.kinds[k].target, s.kinds[k].plans[0])); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// pick maps op i to its kind and plan: every fifth op replaces nodes, the
// rest drain racks, and each kind walks its own plan list.
func (s *scaleInst) pick(i int) (core.Target, core.Plan) {
	replaces := i / 5 // node-replacement ops before op i
	if i%5 == 4 {
		return s.kinds[1].target, s.kinds[1].plans[replaces%scalePlans]
	}
	return s.kinds[0].target, s.kinds[0].plans[(i-replaces)%scalePlans]
}

func (s *scaleInst) exec(t core.Target, p core.Plan) (out scaleOut) {
	build := t.Build
	t.Build = func(seed int64) *infra.Cluster {
		s.last = build(seed)
		return s.last
	}
	defer func() {
		if r := recover(); r != nil {
			out.panic = r
		}
	}()
	out.exec = core.RunPlanSeed(t, p, s.seed)
	out.steps, out.net = s.last.World.Kernel().Steps(), s.last.World.Network().Stats()
	return out
}

func (s *scaleInst) run(i int) any { return s.exec(s.pick(i)) }

func (s *scaleInst) check(i int, o any) (int, any, error) {
	out := o.(scaleOut)
	if out.panic != nil {
		return 0, nil, fmt.Errorf("panic: %v", out.panic)
	}
	return 1, keepIfSampled(i, out), nil
}

// verify re-executes the op and demands the timed run reproduced it
// exactly: an execution is a pure function of target, plan and seed.
func (s *scaleInst) verify(i int, kept any) error {
	got, want := kept.(scaleOut), s.exec(s.pick(i))
	switch {
	case want.panic != nil:
		return fmt.Errorf("panic on re-execution: %v", want.panic)
	case got.steps != want.steps:
		return fmt.Errorf("kernel steps %d, re-execution %d", got.steps, want.steps)
	case got.net != want.net:
		return fmt.Errorf("network stats %+v, re-execution %+v", got.net, want.net)
	case !sameViolations(got.exec.Violations, want.exec.Violations):
		return fmt.Errorf("violations differ on re-execution")
	}
	return nil
}

func sameViolations(a, b []oracle.Violation) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func (s *scaleInst) traced(tr *tracer, acc *layerAcc, i int) {
	t, p := s.pick(i)
	stagedExec(tr, acc, t, p, s.seed, false)
	if i%3 == 0 {
		acc.extraWall += stagedCheckpoint(tr, t, s.seed)
	}
}

func (s *scaleInst) extras(tr *tracer, k int, _ baseline, m map[string]float64) error {
	// The recorded variant of the same executions: what instrumentation
	// (recorder + state hash) would cost at this scale. Every third op
	// is enough for a mean.
	var acc layerAcc
	var plain, recorded float64
	for i := 0; i < k; i += 3 {
		t, p := s.pick(i)
		plain += ms(tr.op(i, "core.RunPlanSeed", func() { core.RunPlanSeed(t, p, s.seed) }))
		recorded += ms(tr.op(i, "staged.recorded", func() { stagedExec(tr, &acc, t, p, s.seed, true) }))
	}
	m["trace.record_overhead_pct"] = (recorded/plain - 1) * 100
	m["trace.records_per_exec"] = float64(acc.records) / float64(acc.traces)
	m["trace.statehash_us"] = us(tr.mean("trace.StateHash"))
	return nil
}
