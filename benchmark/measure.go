package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runConfig is one invocation: one workload, one seed, one pass.
type runConfig struct {
	seed    int64
	seconds float64
	// maxOps, when > 0, ends the window after that many operations
	// instead of after seconds (-validate and the tests use 1).
	maxOps int
	// repeatSetup performs set-up several times (see setupRepeats) and
	// reports the median as setup_s; otherwise set-up runs once.
	repeatSetup bool
	// tracedOps overrides the workload's traced operation count when > 0.
	tracedOps int
	spansPath string
	log       io.Writer
}

// Set-up runs at least setupRepeats times and setup_s reports the median,
// so one slow first build of the heap does not set the metric. A cheap
// set-up (tenths of a second) is a noisy one, so it is repeated further,
// up to maxSetupRepeats times or until setupBudget has been spent.
const (
	setupRepeats    = 3
	maxSetupRepeats = 9
	setupBudget     = 2 * time.Second
)

// opRecord is one closed-loop operation's outcome.
type opRecord struct {
	i     int
	ms    float64 // wall of the timed call
	cpuMs float64 // process user+sys CPU over the timed call
	// host is the host factor around the call (host.go): ms/host and
	// cpuMs/host are the host-normalised readings.
	host  float64
	execs int
	kept  any
	err   error
}

// window is one closed loop over an instance.
type window struct {
	ops []opRecord
	// hostProbes[i] ran before operation i, hostProbes[i+1] after it.
	hostProbes []float64
	execs      int
}

// opMs is the wall spent inside the timed calls, as measured.
func (w window) opMs() float64 {
	var sum float64
	for _, op := range w.ops {
		sum += op.ms
	}
	return sum
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop drives inst from one driver: the next operation is issued
// only when the previous one has returned, and none is started once stop()
// reports true. Between operations, outside their timing, run the host
// probe and the cheap half of the output check.
func closedLoop(inst instance, stop func(started int, elapsed time.Duration) bool) window {
	w := window{hostProbes: []float64{probe()}}
	t0 := time.Now()
	for i := 0; !stop(i, time.Since(t0)); i++ {
		cpu0, start := cpuTime(), time.Now()
		out := inst.run(i)
		rec := opRecord{i: i, ms: ms(time.Since(start)), cpuMs: ms(cpuTime() - cpu0)}
		w.hostProbes = append(w.hostProbes, probe())
		rec.execs, rec.kept, rec.err = inst.check(i, out)
		w.execs += rec.execs
		w.ops = append(w.ops, rec)
	}
	for i := range w.ops {
		w.ops[i].host = hostFactor(w.hostProbes, i)
	}
	return w
}

// verifyKept runs the after-window half of the output checks.
func verifyKept(inst instance, w *window) {
	for j := range w.ops {
		op := &w.ops[j]
		if op.err == nil && op.kept != nil {
			op.err = inst.verify(op.i, op.kept)
		}
		op.kept = nil
	}
}

func (w window) failed(log io.Writer) int {
	n := 0
	for _, op := range w.ops {
		if op.err != nil {
			n++
			fmt.Fprintf(log, "op %d FAILED: %v\n", op.i, op.err)
		}
	}
	return n
}

// measureEndToEnd is the untraced pass: set-up (repeated), one timed
// closed-loop window, the after-window output checks, and the end-to-end
// metrics, every one of them host-normalised.
func measureEndToEnd(def workloadDef, cfg runConfig) (report, error) {
	var inst instance
	var setupS []float64
	var spent time.Duration
	before := probes(hostNeighbours)
	for {
		start := time.Now()
		var err error
		if inst, err = def.setup(cfg.seed); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", def.spec.Name, err)
		}
		d := time.Since(start)
		after := probes(hostNeighbours)
		spent += d
		setupS = append(setupS, d.Seconds()/factorOf(append(before, after...)))
		before = after
		n := len(setupS)
		if !cfg.repeatSetup || n >= maxSetupRepeats || (n >= setupRepeats && spent >= setupBudget) {
			break
		}
	}

	limit := time.Duration(cfg.seconds * float64(time.Second))
	w := closedLoop(inst, func(started int, elapsed time.Duration) bool {
		if cfg.maxOps > 0 {
			return started >= cfg.maxOps
		}
		return elapsed >= limit
	})
	verifyKept(inst, &w)

	var lat, raw, host []float64
	var opS, cpuMs float64 // host-normalised sums over every operation
	for _, op := range w.ops {
		opS += op.ms / op.host / 1e3
		cpuMs += op.cpuMs / op.host
		host = append(host, op.host)
		if op.err == nil { // a failed op misses every latency
			lat = append(lat, op.ms/op.host)
			raw = append(raw, op.ms)
		}
	}
	rep := report{Attempted: len(w.ops), Failed: w.failed(cfg.log), Metrics: map[string]value{}}
	rep.Correct = rep.Failed == 0
	if w.execs == 0 {
		return rep, fmt.Errorf("%s: no execution completed", def.spec.Name)
	}
	vals := map[string]float64{
		"setup_s":         median(setupS),
		"op_ms_p50":       percentile(lat, 50),
		"op_ms_p90":       percentile(lat, 90),
		"execs_per_s":     float64(w.execs) / opS,
		"cpu_ms_per_exec": cpuMs / float64(w.execs),
	}
	for _, s := range endToEndSpecs {
		rep.Metrics[s.Name] = value{vals[s.Name], s.Unit}
	}
	hq1, hq3 := quartiles(host)
	fmt.Fprintf(cfg.log, "%s seed=%d: %d ops, %d executions in %.2f s of operations, failed_op_ratio %d/%d\n",
		def.spec.Name, cfg.seed, len(w.ops), w.execs, w.opMs()/1e3, rep.Failed, rep.Attempted)
	fmt.Fprintf(cfg.log, "  as measured: op_ms_p50 %.3f op_ms_p90 %.3f execs_per_s %.3f; host factor median %.3f (quartiles %.3f, %.3f)\n",
		percentile(raw, 50), percentile(raw, 90), float64(w.execs)/(w.opMs()/1e3), median(host), hq1, hq3)
	return rep, nil
}

// goStats is the process-level memory and GC reading.
type goStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // seconds
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	g := goStats{mallocs: m.Mallocs, allocBytes: m.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = samples[1].Value.Float64()
	}
	return g
}

// baseline is what a workload's extras compare against: the wall of the
// untraced run of the traced pass's operations and its outputs (for
// engine-level counters), and the wall of their staged equivalent.
type baseline struct {
	wallMs   float64
	stagedMs float64
	outs     []any
}

// keepAll wraps an instance so the closed loop retains every output.
type keepAll struct {
	instance
	outs []any
}

func (k *keepAll) check(i int, out any) (int, any, error) {
	execs, _, err := k.instance.check(i, out)
	k.outs[i] = out
	return execs, nil, err
}

// measureLayers is the traced pass: unit-cost probes, an untraced
// baseline of the first k operations, the same operations through the
// staged driver with one span per layer call, and the workload's own
// engine/fleet/explorer measurements. End-to-end metrics are never taken
// from here.
func measureLayers(def workloadDef, cfg runConfig) (report, error) {
	name := def.spec.Name
	k := def.tracedOps
	if cfg.tracedOps > 0 {
		k = cfg.tracedOps
	}
	inst, err := def.setup(cfg.seed)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", name, err)
	}
	probes, err := runProbes()
	if err != nil {
		return report{}, err
	}

	ka := &keepAll{instance: inst, outs: make([]any, k)}
	runtime.GC()
	g0 := readGoStats()
	base := closedLoop(ka, func(started int, _ time.Duration) bool { return started >= k })
	baseMs := base.opMs()
	g1 := readGoStats()
	if base.execs == 0 {
		return report{}, fmt.Errorf("%s: no execution completed", name)
	}

	tr := newTracer()
	var acc layerAcc
	var stagedWall time.Duration
	for i := 0; i < k; i++ {
		stagedWall += tr.op(i, "staged.op", func() { inst.traced(tr, &acc, i) })
	}
	stagedCoreMs := ms(stagedWall - acc.extraWall)

	m := layerMetrics(tr, &acc, probes)
	execs := float64(base.execs)
	m["go.allocs_per_exec"] = float64(g1.mallocs-g0.mallocs) / execs
	m["go.alloc_kb_per_exec"] = float64(g1.allocBytes-g0.allocBytes) / 1024 / execs
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		m["go.gc_cpu_pct"] = (g1.gcCPU - g0.gcCPU) / cpu * 100
	}
	m["trace_overhead_pct"] = (stagedCoreMs/baseMs - 1) * 100
	m["host.factor"] = factorOf(base.hostProbes)
	if err := inst.extras(tr, k, baseline{baseMs, stagedCoreMs, ka.outs}, m); err != nil {
		return report{}, fmt.Errorf("%s: traced pass: %w", name, err)
	}
	// Peaks are read last: they cover the whole pass.
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m["go.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["go.rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
	}

	rep := report{Attempted: len(base.ops), Failed: base.failed(cfg.log), Metrics: map[string]value{}}
	rep.Correct = rep.Failed == 0
	if err := checkNesting(tr.spans); err != nil {
		fmt.Fprintf(cfg.log, "span file: %v\n", err)
		rep.Correct = false
	}
	for _, zero := range []string{"campaign.fallbacks", "farm.retries"} {
		if m[zero] != 0 {
			fmt.Fprintf(cfg.log, "%s = %v, must be 0\n", zero, m[zero])
			rep.Correct = false
		}
	}
	for _, s := range perLayerSpecs {
		rep.Metrics[s.Name] = value{m[s.Name], s.Unit}
	}
	printLayerSelf(cfg.log, name, tr.spans)
	if cfg.spansPath != "" {
		if err := writeSpans(cfg.spansPath, name, tr.spans); err != nil {
			return rep, err
		}
		fmt.Fprintf(cfg.log, "%d spans written to %s\n", len(tr.spans), cfg.spansPath)
	}
	return rep, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the substrate-layer metrics from the staged
// driver's spans, its boundary counts and the unit-cost probes. A layer
// the workload never calls reports 0.
func layerMetrics(tr *tracer, acc *layerAcc, p probeResults) map[string]float64 {
	execs := float64(acc.execs)
	count := func(name string) float64 { return float64(tr.count(name)) }
	runNs := float64(tr.total("sim.RunFor").Nanoseconds())
	m := map[string]float64{
		"sim.steps_per_exec":       ratio(float64(acc.steps), execs),
		"sim.run_ms_per_exec":      ms(tr.mean("sim.RunFor")),
		"sim.ns_per_step":          ratio(runNs, float64(acc.runSteps)),
		"sim.net_sent_per_exec":    ratio(float64(acc.sent), execs),
		"sim.net_dropped_per_exec": ratio(float64(acc.dropped), execs),
		"sim.kernel_event_ns":      p.kernelEventNs,
		"sim.net_send_ns":          p.netSendNs,

		"store.commits_per_exec": ratio(float64(acc.commits), execs),
		"store.put_ns":           p.storePutNs,
		"store.cas_ns":           p.storeCASNs,
		"store.watch_fanout_ns":  p.watchFanoutNs,
		"raftlite.commit_ns":     p.raftCommitNs,

		"apiserver.relay_events_per_exec":    ratio(float64(acc.serve.RelayEvents), execs),
		"apiserver.relay_sends_per_exec":     ratio(float64(acc.serve.RelaySends), execs),
		"apiserver.relay_visits_per_send":    ratio(float64(acc.serve.RelaySubVisits), float64(acc.serve.RelaySends)),
		"apiserver.lists_per_exec":           ratio(float64(acc.serve.ListServed), execs),
		"apiserver.list_keys_per_list":       ratio(float64(acc.serve.ListKeysScanned), float64(acc.serve.ListServed)),
		"apiserver.decode_hit_ratio":         ratio(float64(acc.serve.DecodeHits), float64(acc.serve.DecodeHits+acc.serve.DecodeMisses)),
		"apiserver.window_compacts_per_exec": ratio(float64(acc.serve.WindowCompacts), execs),

		"client.informer_event_ns": p.informerEventNs,

		"infra.build_ms":             ms(tr.mean("infra.Build")),
		"infra.capture_ms":           ms(tr.mean("infra.Capture")),
		"infra.restore_ms":           ms(tr.mean("infra.Snapshot.NewCluster")),
		"infra.workload_schedule_us": us(tr.mean("infra.Workload")),

		"oracle.check_us":            us(tr.mean("oracle.Violations")),
		"oracle.violations_per_exec": ratio(float64(acc.violations), execs),

		"trace.record_overhead_pct": (ratio(float64(acc.refWall), float64(acc.nopWall)) - 1) * 100,
		"trace.records_per_exec":    ratio(float64(acc.records), float64(acc.traces)),
		"trace.statehash_us":        us(tr.mean("trace.StateHash")),

		"core.plan_ms":        ms(tr.mean("core.Planner.Plans")),
		"core.plans_total":    ratio(float64(acc.plansTotal), count("core.Planner.Plans")),
		"core.apply_us":       us(tr.mean("core.Apply")),
		"core.minimize_ms":    ms(tr.mean("core.MinimizeSeedRun")),
		"core.minimize_execs": ratio(float64(acc.minimizeExecs), count("core.MinimizeSeedRun")),

		"learn.mine_us":      us(tr.mean("learn.Mine")),
		"learn.schedule_us":  us(tr.mean("learn.BuildSchedule")),
		"learn.pruned_ratio": ratio(float64(acc.deferred), float64(acc.planned)),

		"campaign.tree_capture_ms":   ms(tr.mean("campaign.NewForker")),
		"campaign.fork_run_ms_p50":   median(acc.pairedForkMs),
		"campaign.replay_run_ms_p50": median(acc.pairedReplayMs),
		"campaign.fork_ratio":        ratio(float64(acc.forks), float64(acc.forks+acc.replays)),
		"explain.explain_ms":         ms(tr.mean("explain.FromTraces")),
	}
	if acc.nopWall == 0 {
		m["trace.record_overhead_pct"] = 0
	}
	// What outside-in timing cannot split: time inside Cluster.RunFor
	// minus (exact count x unit cost) for the kernel, the network and the
	// store. Relay, informer and component handler time has no unit probe
	// that does not already contain those three, so it stays in here.
	if runNs > 0 {
		attributed := float64(acc.runSteps)*p.kernelEventNs +
			float64(acc.sent)*p.netSendBeyondKernelNs +
			float64(acc.commits)*(p.storePutNs+p.watchPerWatcherNs*float64(acc.apiServers))
		m["sim.run_unattributed_pct"] = (1 - attributed/runNs) * 100
	}
	return m
}

func printLayerSelf(w io.Writer, workload string, spans []span) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%s: self time by layer over %d spans (%.0f ms traced)\n", workload, len(spans), ms(total))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %9.1f ms %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
}
