package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		samples []float64
		p, want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 0, 1},
		{[]float64{3, 1, 2}, 50, 2},
	} {
		if got := percentile(tc.samples, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.samples, tc.p, got, tc.want)
		}
	}
}

// The acceptance pipeline computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		q1, q3  float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.samples)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.samples, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreadAndBoundArithmetic(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		base, cur float64
		better    string
		want      float64
	}{
		{100, 107, "lower", 0.07},
		{100, 93, "lower", -0.07},
		{100, 93, "higher", 0.07},
		{100, 110, "higher", -0.10},
		{0, 5, "lower", 0},
	} {
		if got := worsening(tc.base, tc.cur, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.base, tc.cur, tc.better, got, tc.want)
		}
	}
	for _, tc := range []struct{ spread, ceiling, want float64 }{
		{0.001, 0.25, 0.02}, // floor
		{0.02, 0.25, 0.06},  // three times the spread
		{0.2, 0.25, 0.25},   // ceiling
	} {
		if got := suggestedBound(tc.spread, tc.ceiling); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("suggestedBound(%v, %v) = %v, want %v", tc.spread, tc.ceiling, got, tc.want)
		}
	}
}

func TestHostFactorNeighbourhood(t *testing.T) {
	// probe, op 0, probe, op 1, ... probe: seven probes around six ops.
	q, slow := probeNominalMs, 1.4*probeNominalMs
	samples := []float64{q, q, slow, slow, slow, slow, q}
	for i, want := range []float64{1.2, 1.4, 1.4, 1.4, 1.4, 1.4} {
		if got := hostFactor(samples, i); math.Abs(got-want) > 1e-12 {
			t.Errorf("hostFactor(op %d) = %v, want %v", i, got, want)
		}
	}
	if got := factorOf(nil); got != 1 {
		t.Errorf("factorOf(no probes) = %v, want 1", got)
	}
	// Past probeTrust the excess counts for its square root.
	if got, want := factorOf([]float64{6 * probeNominalMs}), probeTrust*2; math.Abs(got-want) > 1e-12 {
		t.Errorf("factorOf(6 x nominal) = %v, want %v", got, want)
	}
	if got := probe(); got <= 0 {
		t.Errorf("probe() = %v ms", got)
	}
}

func TestSelfTimeAndNesting(t *testing.T) {
	// op [0,100] { a [10,40] { b [15,25] }  c [50,90] }
	spans := []span{
		{ID: 0, Parent: -1, OpID: 7, Name: "staged.op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, OpID: 7, Name: "infra.Build", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 1, OpID: 7, Name: "sim.RunFor", StartNs: 15, EndNs: 25},
		{ID: 3, Parent: 0, OpID: 7, Name: "sim.RunFor", StartNs: 50, EndNs: 90},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatalf("well-nested spans rejected: %v", err)
	}
	want := []time.Duration{30, 20, 10, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}
	if got := layerSelf(spans); got["sim"] != 50 || got["infra"] != 20 || got["staged"] != 30 {
		t.Errorf("layerSelf = %v", got)
	}

	escaped := append([]span(nil), spans...)
	escaped[2].EndNs = 45 // child outlives its parent
	if checkNesting(escaped) == nil {
		t.Error("child outside its parent accepted")
	}
	foreign := append([]span(nil), spans...)
	foreign[3].OpID = 8
	if checkNesting(foreign) == nil {
		t.Error("child with another op_id accepted")
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	tr.op(3, "staged.op", func() {
		tr.do("infra.Build", func() {})
		tr.doAs(func() string { return "infra.Capture.refused" })
	})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	if s := tr.spans[2]; s.Name != "infra.Capture.refused" || s.Parent != 0 || s.OpID != 3 {
		t.Errorf("outcome-named span = %+v", s)
	}
}

func TestParseScheduleRoundTrips(t *testing.T) {
	drop := core.DropDeliveryPlan{Victim: "scheduler", Kind: "nodes", Name: "n1", Type: "DELETED", Occurrence: 1}
	delay := core.DelayDeliveryPlan{Victim: "cassandra-operator", Kind: "pods", Name: "ns/cass-1", Type: "MODIFIED", Occurrence: 3, Delay: 2 * sim.Second}
	for _, p := range []core.Plan{
		drop, delay,
		core.SequencePlan{Name: "explore"},
		core.SequencePlan{Name: "explore", Plans: []core.Plan{drop, delay}},
	} {
		got, err := parseSchedule(p.ID())
		if err != nil {
			t.Errorf("parseSchedule(%q): %v", p.ID(), err)
			continue
		}
		if got.ID() != p.ID() {
			t.Errorf("parseSchedule(%q) rebuilt %q", p.ID(), got.ID())
		}
	}
	for _, bad := range []string{"", "crash/k1@5", "dropdel/a/b/c", "dropdel/a/b/c/T#0", "delaydel/a/b/c/T#1", "seq/explore[dropdel/a/b/c/T#1"} {
		if _, err := parseSchedule(bad); err == nil {
			t.Errorf("parseSchedule(%q) accepted", bad)
		}
	}
}

func TestCheckReportRejectsBrokenReports(t *testing.T) {
	good := report{Correct: true, Attempted: 3, Metrics: map[string]value{}}
	for _, s := range endToEndSpecs {
		good.Metrics[s.Name] = value{1.5, s.Unit}
	}
	if err := checkReport(good, endToEndSpecs); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	mutate := func(f func(*report)) report {
		r := good
		r.Metrics = map[string]value{}
		for k, v := range good.Metrics {
			r.Metrics[k] = v
		}
		f(&r)
		return r
	}
	for name, r := range map[string]report{
		"no ops":        mutate(func(r *report) { r.Attempted = 0 }),
		"correct+fails": mutate(func(r *report) { r.Failed = 1 }),
		"missing":       mutate(func(r *report) { delete(r.Metrics, "op_ms_p50") }),
		"extra":         mutate(func(r *report) { r.Metrics["bogus"] = value{1, "ms"} }),
		"wrong unit":    mutate(func(r *report) { r.Metrics["setup_s"] = value{1, "ms"} }),
		"NaN":           mutate(func(r *report) { r.Metrics["setup_s"] = value{math.NaN(), "s"} }),
	} {
		if checkReport(r, endToEndSpecs) == nil {
			t.Errorf("%s: broken report accepted", name)
		}
	}
}

// BENCHMARK.json and the tables in spec.go are two copies of one
// vocabulary; this is what keeps them equal.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloadSpecs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their rationales differ)", i, w.Name, workloadSpecs[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range bj.EndToEnd {
		s := endToEndSpecs[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bj.PerLayer), len(perLayerSpecs))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		s := perLayerSpecs[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q (%q): illegal or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract allows exactly 6", len(keys))
	}
}

// One op per workload through the measured path, with every output check.
func TestValidate(t *testing.T) {
	if err := runValidate(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The traced pass on one operation: every per-layer metric is reported,
// the spans nest, and the layers this workload drives are non-zero.
func TestTracedPassSmoke(t *testing.T) {
	def, ok := findWorkload("campaign-small-world")
	if !ok {
		t.Fatal("workload missing")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	rep, err := measureLayers(def, runConfig{seed: 1, tracedOps: 1, spansPath: spans, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(rep, perLayerSpecs); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Error("traced pass reported incorrect")
	}
	for _, name := range []string{"sim.steps_per_exec", "infra.build_ms", "campaign.fork_run_ms_p50", "core.plans_total", "go.allocs_per_exec"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("empty span file")
	}
	if err := checkNesting(doc.Spans); err != nil {
		t.Error(err)
	}
}
