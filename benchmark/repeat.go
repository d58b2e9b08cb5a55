package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runValidate is the quick self-check tier-1 runs: one operation per
// workload through the full measured path — set-up, warm-up, the timed
// call, every output check including the differential re-execution — and
// the schema check of the report that would be printed.
func runValidate(w io.Writer) error {
	for _, def := range workloadDefs() {
		rep, err := measureEndToEnd(def, runConfig{seed: 1, maxOps: 1, log: w})
		if err != nil {
			return err
		}
		if err := checkReport(rep, endToEndSpecs); err != nil {
			return fmt.Errorf("%s: report: %w", def.spec.Name, err)
		}
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d ops failed their output checks", def.spec.Name, rep.Failed, rep.Attempted)
		}
	}
	fmt.Fprintf(w, "validate: %d workloads ok\n", len(workloadDefs()))
	return nil
}

// hostDescriptor says where a set of numbers came from. A run that starts
// on an already-loaded host is labelled noisy.
func hostDescriptor() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	load, label := "unknown", ""
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			load = f[0]
			if l, err := strconv.ParseFloat(f[0], 64); err == nil && l > float64(runtime.NumCPU()) {
				label = " (noisy: load average above nproc at start)"
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q loadavg=%s%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model, load, label)
}

// child runs this same binary for one workload pass — a fresh process per
// run, exactly as the acceptance pipeline does — and parses the report
// off the last line of its standard output.
func child(workload string, seed int64, seconds float64, traced int) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(traced))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s seed %d: last line is not a report: %w", workload, seed, err)
	}
	return rep, nil
}

// runRepeat measures n sets: every workload n times untraced, each time
// under another seed, then twice traced under one seed. It prints each
// end-to-end metric's median, quartiles and spread (interquartile
// distance over median — the acceptance pipeline's statistic) against its
// BENCHMARK.json bound, and how much worse the second half of the runs
// read than the first (the same code measured twice must not look like a
// regression). It fails when a spread or that drift exceeds the bound, an
// operation failed, or an exact per-layer count differs between the two
// traced runs.
func runRepeat(n int, seed int64, seconds float64, mdPath string, w io.Writer) error {
	bj, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var md strings.Builder
	out := io.MultiWriter(w, &md)
	fmt.Fprintf(out, "# Benchmark baseline\n\n`go run ./benchmark -repeat %d -seed %d -seconds %g`\n\nhost: %s\n\n",
		n, seed, seconds, hostDescriptor())
	fmt.Fprintf(out, "Spread is (Q3-Q1)/median over the %d runs, one seed each (%d..%d). Drift is by how much the median of the later half of the runs is worse than that of the earlier half. Suggested is the bound the rule in README.md derives from this spread.\n",
		n, seed, seed+int64(n)-1)

	var problems []string
	for _, ws := range workloadSpecs {
		series := map[string][]float64{}
		attempted, failed := 0, 0
		for r := 0; r < n; r++ {
			rep, err := child(ws.Name, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			attempted += rep.Attempted
			failed += rep.Failed
			for name, v := range rep.Metrics {
				series[name] = append(series[name], v.Value)
			}
		}
		fmt.Fprintf(out, "\n## %s\n\n%d ops attempted over %d runs, %d failed.\n\n", ws.Name, attempted, n, failed)
		fmt.Fprintf(out, "| metric | unit | median | Q1 | Q3 | min | max | spread | drift | bound | suggested |\n|---|---|---|---|---|---|---|---|---|---|---|\n")
		if failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d failed ops", ws.Name, failed))
		}
		for _, s := range endToEndSpecs {
			vals := series[s.Name]
			q1, q3 := quartiles(vals)
			lo, hi := minMax(vals)
			sp := spread(vals)
			bound, _ := bj.bound(s.Name)
			drift := worsening(median(vals[:n/2]), median(vals[n/2:]), s.Better)
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %.4f | %.4f | %.4f | %.2f%% | %+.2f%% | %.0f%% | %.0f%% |\n",
				s.Name, s.Unit, median(vals), q1, q3, lo, hi, 100*sp, 100*drift, 100*bound, 100*suggestedBound(sp, 0.25))
			if s.Name != "setup_s" && sp > bound {
				problems = append(problems, fmt.Sprintf("%s %s: spread %.2f%% exceeds bound %.0f%%", ws.Name, s.Name, 100*sp, 100*bound))
			}
			if n >= 2 && drift > bound {
				problems = append(problems, fmt.Sprintf("%s %s: later runs %.2f%% worse than earlier ones, bound %.0f%%", ws.Name, s.Name, 100*drift, 100*bound))
			}
		}

		a, err := child(ws.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		b, err := child(ws.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		if !a.Correct || !b.Correct {
			problems = append(problems, fmt.Sprintf("%s: traced pass incorrect", ws.Name))
		}
		fmt.Fprintf(out, "\nPer-layer metrics, two traced runs of seed %d (exact counts must agree):\n\n| metric | unit | run 1 | run 2 | | predicted to move |\n|---|---|---|---|---|---|\n", seed)
		for _, s := range perLayerSpecs {
			va, vb := a.Metrics[s.Name].Value, b.Metrics[s.Name].Value
			note := ""
			if s.Exact {
				note = "exact"
				if va != vb {
					note = "exact: DIFFERS"
					problems = append(problems, fmt.Sprintf("%s %s: exact count %v vs %v", ws.Name, s.Name, va, vb))
				}
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %s | %s |\n", s.Name, s.Unit, va, vb, note, s.Moves)
		}
	}
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(md.String()), 0o644); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

func minMax(vals []float64) (lo, hi float64) {
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
