// Command benchmark is the repository's performance benchmark: five named
// closed-loop workloads that drive the partial-history testing tool the
// way its users do (campaign.Engine, farm.RunSupervised, explore.Run,
// core.RunPlanSeed), five end-to-end metrics measured with tracing off
// and divided by how slow a fixed probe says the host was just then
// (host.go), and a separate traced pass that attributes time to layers
// from the outside, by timing calls into each module's public functions.
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark -validate
//	go run ./benchmark -repeat N [-baseline FILE]
//
// BENCHMARK.json at the repository root names the workloads and metrics
// and fixes each end-to-end metric's regression bound; README.md in this
// directory defines every name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: operation i runs under world seed seed*1000+i")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	spans := fs.String("spans", "", "with -trace 1: write the span file (JSON) here")
	validate := fs.Bool("validate", false, "one op per workload, every output check, report schema self-check")
	repeat := fs.Int("repeat", 0, "run N sets of every workload, print medians/quartiles/spreads, fail on a spread beyond its bound")
	baselineOut := fs.String("baseline", "", "with -repeat: also write the table as markdown here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One process on one core: the collector shares it with the tool, so
	// no thread is woken on a second vCPU and the host probe (host.go) sees
	// the interference the operations see.
	runtime.GOMAXPROCS(1)

	switch {
	case *validate:
		if err := runValidate(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark: validate:", err)
			return 1
		}
		return 0
	case *repeat > 0:
		if err := runRepeat(*repeat, *seed, *seconds, *baselineOut, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark: repeat:", err)
			return 1
		}
		return 0
	}

	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have:", *workload)
		for _, w := range workloadSpecs {
			fmt.Fprintf(stderr, " %s", w.Name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, repeatSetup: true, spansPath: *spans, log: stderr}
	measure, specs := measureEndToEnd, endToEndSpecs
	if *traced != 0 {
		measure, specs = measureLayers, perLayerSpecs
	}
	rep, err := measure(def, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := checkReport(rep, specs); err != nil {
		fmt.Fprintln(stderr, "benchmark: report fails its own schema:", err)
		return 1
	}
	printReport(stdout, def.spec.Name, rep, specs)
	return 0
}

// printReport prints every metric by name with its unit, then — as the
// last line — the machine-readable report.
func printReport(w io.Writer, workload string, rep report, specs []metricSpec) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed, correct=%v\n", workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", s.Name, rep.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a map of finite floats and strings always encodes
	}
	fmt.Fprintf(w, "%s\n", line)
}
