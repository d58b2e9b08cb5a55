package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// This file is the benchmark's vocabulary: the workload, end-to-end and
// per-layer metric tables. BENCHMARK.json at the repository root carries
// the same names (plus the regression bounds); TestSpecMatchesBenchmarkJSON
// keeps the two from drifting apart.

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Exact marks a virtual-time-deterministic count: two traced runs of
	// the same seed must report it bit-for-bit equal.
	Exact bool
	// Moves names the end-to-end metric and workload the layer metric is
	// predicted to move (README carries the full interaction table).
	Moves string
}

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"campaign-small-world", "2-node k8s worlds, ~1.5 ms executions: per-execution fixed cost (infra build, checkpoint capture/restore, engine dispatch) dominates and the serving path barely runs"},
	{"campaign-operator", "cassandra-operator worlds, 5-8 ms executions of commits, watch pushes and reconciles: steady-state sim/store/apiserver/client/operators time; forking gains least here"},
	{"fleet-detect", "time to first detection through the fleet with every smart layer on: trace recording, learn mine/prune/rank, explain/minimize, farm protocol and merge, artifact encode"},
	{"explore-certify", "time to an explore certificate or witness: serial, always instrumented, deep forks, a state hash per schedule, then minimize+explain on witnesses"},
	{"scale-serving", "plans replayed on 50-node racked worlds: kernel loop, network, apiserver relay/list and informers dominate; infra build under 1%, no forking"},
}

var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "execs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_exec", Unit: "ms", Better: "lower"},
}

const (
	mvFork    = "op_ms_p50,execs_per_s on campaign-small-world,explore-certify"
	mvSim     = "cpu_ms_per_exec,execs_per_s on scale-serving,campaign-operator"
	mvServe   = "op_ms_p50 on scale-serving"
	mvStore   = "execs_per_s on campaign-operator,scale-serving"
	mvTrace   = "op_ms_p50 on explore-certify,fleet-detect"
	mvSmart   = "op_ms_p50,op_ms_p90 on fleet-detect"
	mvFarm    = "op_ms_p50,cpu_ms_per_exec on fleet-detect"
	mvEngine  = "execs_per_s on campaign-small-world"
	mvGo      = "cpu_ms_per_exec on all"
	mvExplore = "op_ms_p50,execs_per_s on explore-certify"
)

var perLayerSpecs = []metricSpec{
	// sim
	{"sim.steps_per_exec", "count", "lower", true, mvSim},
	{"sim.run_ms_per_exec", "ms", "lower", false, mvSim},
	{"sim.ns_per_step", "ns", "lower", false, mvSim},
	{"sim.net_sent_per_exec", "count", "lower", true, mvSim},
	{"sim.net_dropped_per_exec", "count", "lower", true, mvSim},
	{"sim.kernel_event_ns", "ns", "lower", false, mvSim},
	{"sim.net_send_ns", "ns", "lower", false, mvSim},
	{"sim.run_unattributed_pct", "%", "lower", false, mvSim},
	// store / raftlite
	{"store.commits_per_exec", "count", "lower", true, mvStore},
	{"store.put_ns", "ns", "lower", false, mvStore},
	{"store.cas_ns", "ns", "lower", false, mvStore},
	{"store.watch_fanout_ns", "ns", "lower", false, mvStore},
	{"raftlite.commit_ns", "ns", "lower", false, mvStore},
	// apiserver
	{"apiserver.relay_events_per_exec", "count", "lower", true, mvServe},
	{"apiserver.relay_sends_per_exec", "count", "lower", true, mvServe},
	{"apiserver.relay_visits_per_send", "ratio", "lower", true, mvServe},
	{"apiserver.lists_per_exec", "count", "lower", true, mvServe},
	{"apiserver.list_keys_per_list", "count", "lower", true, mvServe},
	{"apiserver.decode_hit_ratio", "ratio", "higher", true, mvServe},
	{"apiserver.window_compacts_per_exec", "count", "lower", true, mvServe},
	// client
	{"client.informer_event_ns", "ns", "lower", false, mvStore},
	// infra
	{"infra.build_ms", "ms", "lower", false, mvFork},
	{"infra.capture_ms", "ms", "lower", false, mvFork},
	{"infra.restore_ms", "ms", "lower", false, mvFork},
	{"infra.workload_schedule_us", "us", "lower", false, mvFork},
	// oracle
	{"oracle.check_us", "us", "lower", false, mvSim},
	{"oracle.violations_per_exec", "count", "lower", true, mvSim},
	// trace
	{"trace.record_overhead_pct", "%", "lower", false, mvTrace},
	{"trace.records_per_exec", "count", "lower", true, mvTrace},
	{"trace.statehash_us", "us", "lower", false, mvTrace},
	// core
	{"core.plan_ms", "ms", "lower", false, mvSmart},
	{"core.plans_total", "count", "lower", true, mvSmart},
	{"core.apply_us", "us", "lower", false, mvSmart},
	{"core.minimize_ms", "ms", "lower", false, mvSmart},
	{"core.minimize_execs", "count", "lower", true, mvSmart},
	// learn
	{"learn.mine_us", "us", "lower", false, mvSmart},
	{"learn.schedule_us", "us", "lower", false, mvSmart},
	{"learn.pruned_ratio", "ratio", "higher", true, mvSmart},
	// campaign
	{"campaign.tree_capture_ms", "ms", "lower", false, mvFork},
	{"campaign.fork_run_ms_p50", "ms", "lower", false, mvFork},
	{"campaign.replay_run_ms_p50", "ms", "lower", false, mvFork},
	{"campaign.fork_ratio", "ratio", "higher", true, mvFork},
	{"campaign.fallbacks", "count", "lower", true, mvFork},
	{"campaign.snapshot_divergences", "count", "lower", true, mvFork},
	{"campaign.engine_overhead_pct", "%", "lower", false, mvEngine},
	{"campaign.parallel_efficiency", "ratio", "higher", false, mvEngine},
	{"campaign.artifact_encode_ms", "ms", "lower", false, mvFarm},
	{"campaign.ndjson_encode_ms", "ms", "lower", false, mvFarm},
	// explore
	{"explore.schedules_per_s", "1/s", "higher", false, mvExplore},
	{"explore.collapsed_ratio", "ratio", "higher", true, mvExplore},
	{"explore.states_visited", "count", "lower", true, mvExplore},
	{"explore.fork_ratio", "ratio", "higher", true, mvExplore},
	// explain
	{"explain.explain_ms", "ms", "lower", false, mvSmart},
	// farm
	{"farm.task_overhead_ms", "ms", "lower", false, mvFarm},
	{"farm.result_bytes_per_task", "bytes", "lower", true, mvFarm},
	{"farm.merge_ms", "ms", "lower", false, mvFarm},
	{"farm.width_efficiency", "ratio", "higher", false, mvFarm},
	{"farm.retries", "count", "lower", true, mvFarm},
	// go (process)
	{"go.allocs_per_exec", "count", "lower", false, mvGo},
	{"go.alloc_kb_per_exec", "KB", "lower", false, mvGo},
	{"go.gc_cpu_pct", "%", "lower", false, mvGo},
	{"go.heap_peak_mb", "MB", "lower", false, mvGo},
	{"go.rss_peak_mb", "MB", "lower", false, mvGo},
	// the traced pass itself
	{"trace_overhead_pct", "%", "lower", false, "none: staged-and-traced wall vs the untraced wall of the same ops"},
	{"host.factor", "ratio", "lower", false, "none: how slow the host probe ran during the traced pass's untraced ops; 1 on a quiet reference host"},
}

// value is one reported metric in the contract's JSON form.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkReport is the schema self-check: the report carries exactly the
// metrics of specs, each with the declared unit, under contract-legal
// names, and its counters are sane.
func checkReport(r report, specs []metricSpec) error {
	if r.Attempted < 1 {
		return fmt.Errorf("attempted = %d, want >= 1", r.Attempted)
	}
	if r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("failed = %d of %d attempted", r.Failed, r.Attempted)
	}
	if r.Correct && r.Failed != 0 {
		return fmt.Errorf("correct with %d failed ops", r.Failed)
	}
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("%d metrics reported, want %d", len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
			return fmt.Errorf("metric %q unit %q: illegal name or unit", s.Name, s.Unit)
		}
		v, ok := r.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %q missing", s.Name)
		}
		if v.Unit != s.Unit {
			return fmt.Errorf("metric %q unit %q, want %q", s.Name, v.Unit, s.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %q is not finite", s.Name)
		}
	}
	return nil
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(path string) (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func (b benchmarkJSON) bound(metric string) (float64, bool) {
	for _, m := range b.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}
