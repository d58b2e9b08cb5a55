// Command benchcheck guards the committed benchmark artifacts against
// drift. BENCH_E5.json, BENCH_E6.json, BENCH_E10.json, BENCH_E11.json
// and BENCH_E12.json record the deterministic results of the E5
// (Section 7 bug-finding matrix), E6 (§6.1 planner efficiency), E10
// (snapshot-substrate equivalence: checkpoint-tree forking with zero
// fallbacks and snapshot-on/off byte-identity on all five targets),
// E11 (exhaustive-mode exploration vs guided/random sampling) and E12
// (serving-path scaling: indexed vs unindexed relay/list cost at 10,
// 100 and 500 nodes, with campaign byte-identity between the paths)
// experiments; benchcheck recomputes each from scratch —
// through the same internal/bench code path the benchmarks use — and
// fails with a field-level diff when a committed artifact disagrees with
// the fresh run. A behaviour change that shifts a detection, an execution
// count, or a pruning decision therefore breaks this check until the
// artifacts are regenerated (and the diff reviewed) with -write.
//
// Usage:
//
//	benchcheck [-e5 BENCH_E5.json] [-e6 BENCH_E6.json] [-e10 BENCH_E10.json] [-e11 BENCH_E11.json] [-e12 BENCH_E12.json] [-parallel N] [-write] [-json]
//
// With -json, stdout carries exactly one machine-readable report
// (per-artifact field-level diff entries, bench.DiffEntry form) and all
// progress chatter moves to stderr, so the output can feed CI tooling
// directly. Exit codes are unchanged: 0 artifacts agree, 1 drift
// detected or an artifact is missing/unreadable, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artifactReport is one artifact's comparison result in -json form.
type artifactReport struct {
	Path    string            `json:"path"`
	Drift   bool              `json:"drift"`
	Error   string            `json:"error,omitempty"`
	Entries []bench.DiffEntry `json:"entries,omitempty"`
}

type jsonReport struct {
	Tool      string           `json:"tool"`
	Drift     bool             `json:"drift"`
	Artifacts []artifactReport `json:"artifacts"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e5Path := fs.String("e5", "BENCH_E5.json", "committed E5 artifact path")
	e6Path := fs.String("e6", "BENCH_E6.json", "committed E6 artifact path")
	e10Path := fs.String("e10", "BENCH_E10.json", "committed E10 artifact path")
	e11Path := fs.String("e11", "BENCH_E11.json", "committed E11 artifact path")
	e12Path := fs.String("e12", "BENCH_E12.json", "committed E12 artifact path")
	parallel := fs.Int("parallel", 4, "worker-pool width of the width-independent engines; the one guided engine (E11) always runs at the width its artifact was generated with")
	write := fs.Bool("write", false, "regenerate the artifacts instead of checking them")
	jsonOut := fs.Bool("json", false, "emit a machine-readable field-level diff report on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// In -json mode stdout is reserved for the report document.
	status := stdout
	if *jsonOut {
		status = stderr
	}

	if *write {
		if err := regenerate(status, *e5Path, *e6Path, *e10Path, *e11Path, *e12Path, *parallel); err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 1
		}
		return 0
	}

	reports := []artifactReport{
		checkE5(status, *e5Path, *parallel),
		checkE6(status, *e6Path, *parallel),
		checkE10(status, *e10Path, *parallel),
		checkE11(status, *e11Path, *parallel),
		checkE12(status, *e12Path, *parallel),
	}
	drift := false
	for _, r := range reports {
		drift = drift || r.Drift
	}

	if *jsonOut {
		doc := jsonReport{Tool: "benchcheck", Drift: drift, Artifacts: reports}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 1
		}
	} else {
		for _, r := range reports {
			report(stdout, stderr, r)
		}
	}
	if drift {
		fmt.Fprintln(stderr, "benchcheck: committed artifacts disagree with a fresh run; regenerate with -write and review the diff")
		return 1
	}
	fmt.Fprintln(status, "benchcheck: committed artifacts match the fresh run")
	return 0
}

func regenerate(status io.Writer, e5Path, e6Path, e10Path, e11Path, e12Path string, workers int) error {
	fmt.Fprintf(status, "benchcheck: computing E5 (max %d executions)...\n", bench.MaxExecE5)
	if err := bench.WriteFile(e5Path, bench.ComputeE5(bench.MaxExecE5, workers)); err != nil {
		return err
	}
	fmt.Fprintf(status, "benchcheck: computing E6 (max %d executions)...\n", bench.MaxExecE6)
	if err := bench.WriteFile(e6Path, bench.ComputeE6(bench.MaxExecE6, workers)); err != nil {
		return err
	}
	fmt.Fprintf(status, "benchcheck: computing E10 (max %d executions)...\n", bench.MaxExecE10)
	if err := bench.WriteFile(e10Path, bench.ComputeE10(bench.MaxExecE10, workers)); err != nil {
		return err
	}
	fmt.Fprintf(status, "benchcheck: computing E11 (max %d executions)...\n", bench.MaxExecE11)
	if err := bench.WriteFile(e11Path, bench.ComputeE11(bench.MaxExecE11, workers)); err != nil {
		return err
	}
	fmt.Fprintf(status, "benchcheck: computing E12 (max %d executions)...\n", bench.MaxExecE12)
	if err := bench.WriteFile(e12Path, bench.ComputeE12(bench.MaxExecE12, workers)); err != nil {
		return err
	}
	fmt.Fprintf(status, "benchcheck: wrote %s, %s, %s, %s and %s\n", e5Path, e6Path, e10Path, e11Path, e12Path)
	return nil
}

// checkE5/checkE6 load one committed artifact, recompute it fresh at the
// committed budget, and report the field-level diff.
func checkE5(status io.Writer, path string, workers int) artifactReport {
	committed, err := bench.ReadE5(path)
	if err != nil {
		return artifactReport{Path: path, Drift: true, Error: err.Error()}
	}
	fmt.Fprintf(status, "benchcheck: recomputing %s (max %d executions)...\n", path, committed.MaxExecutions)
	entries := bench.DiffEntries(committed, bench.ComputeE5(committed.MaxExecutions, workers))
	return artifactReport{Path: path, Drift: len(entries) > 0, Entries: entries}
}

func checkE6(status io.Writer, path string, workers int) artifactReport {
	committed, err := bench.ReadE6(path)
	if err != nil {
		return artifactReport{Path: path, Drift: true, Error: err.Error()}
	}
	fmt.Fprintf(status, "benchcheck: recomputing %s (max %d executions)...\n", path, committed.MaxExecutions)
	entries := bench.DiffEntries(committed, bench.ComputeE6(committed.MaxExecutions, workers))
	return artifactReport{Path: path, Drift: len(entries) > 0, Entries: entries}
}

func checkE10(status io.Writer, path string, workers int) artifactReport {
	committed, err := bench.ReadE10(path)
	if err != nil {
		return artifactReport{Path: path, Drift: true, Error: err.Error()}
	}
	fmt.Fprintf(status, "benchcheck: recomputing %s (max %d executions)...\n", path, committed.MaxExecutions)
	entries := bench.DiffEntries(committed, bench.ComputeE10(committed.MaxExecutions, workers))
	return artifactReport{Path: path, Drift: len(entries) > 0, Entries: entries}
}

func checkE11(status io.Writer, path string, workers int) artifactReport {
	committed, err := bench.ReadE11(path)
	if err != nil {
		return artifactReport{Path: path, Drift: true, Error: err.Error()}
	}
	fmt.Fprintf(status, "benchcheck: recomputing %s (max %d executions)...\n", path, committed.MaxExecutions)
	entries := bench.DiffEntries(committed, bench.ComputeE11(committed.MaxExecutions, workers))
	return artifactReport{Path: path, Drift: len(entries) > 0, Entries: entries}
}

func checkE12(status io.Writer, path string, workers int) artifactReport {
	committed, err := bench.ReadE12(path)
	if err != nil {
		return artifactReport{Path: path, Drift: true, Error: err.Error()}
	}
	fmt.Fprintf(status, "benchcheck: recomputing %s (max %d executions)...\n", path, committed.MaxExecutions)
	entries := bench.DiffEntries(committed, bench.ComputeE12(committed.MaxExecutions, workers))
	return artifactReport{Path: path, Drift: len(entries) > 0, Entries: entries}
}

func report(stdout, stderr io.Writer, r artifactReport) {
	if r.Error != "" {
		fmt.Fprintln(stderr, "benchcheck:", r.Error)
		return
	}
	if !r.Drift {
		fmt.Fprintf(stdout, "benchcheck: %s agrees with the fresh run\n", r.Path)
		return
	}
	fmt.Fprintf(stderr, "benchcheck: %s drifted (%d differences):\n", r.Path, len(r.Entries))
	for _, e := range r.Entries {
		fmt.Fprintf(stderr, "  %s\n", e)
	}
}
