package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/farm"
)

// useInProcFleet swaps the subprocess fleet for in-process workers so
// command-level tests need no self-exec.
func useInProcFleet(t *testing.T) {
	t.Helper()
	old := newWorkerTransport
	newWorkerTransport = func(slot, spawn int) farm.Transport {
		return farm.NewInProcTransport()
	}
	t.Cleanup(func() { newWorkerTransport = old })
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-ranked"},                  // ranked requires prune
		{"-snapshot", "-fixed"},      // incompatible
		{"-workers", "0"},            // fleet must exist
		{"-targets", "no-such-bug"},  // unknown target
		{"-strategies", "no-such"},   // unknown strategy
		{"-seeds", "one,two"},        // unparsable seeds
		{"-grid", "/absent/g.json"},  // missing grid file
		{"-not-a-flag"},              // flag parse error
		{"-resume"},                  // resume requires a journal
		{"-chaos", "explode@banana"}, // unparsable chaos script
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errBuf.String())
		}
	}
}

// TestMatrixEndToEnd drives the coordinator path through the real CLI:
// artifact and telemetry files written, exit 0, valid canonical JSON.
func TestMatrixEndToEnd(t *testing.T) {
	useInProcFleet(t)
	dir := t.TempDir()
	artPath := filepath.Join(dir, "campaign.json")
	ndPath := filepath.Join(dir, "events.ndjson")
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-workers", "3", "-targets", "cass-op-400", "-strategies", "partial-history",
		"-seeds", "1,2", "-max", "60", "-parallel", "2", "-canonical",
		"-json", artPath, "-ndjson", ndPath,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "YES") {
		t.Errorf("matrix did not report detection:\n%s", out.String())
	}
	data, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	var doc struct {
		Tool        string            `json:"tool"`
		Interrupted bool              `json:"interrupted"`
		Campaigns   []json.RawMessage `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact parse: %v", err)
	}
	if doc.Interrupted {
		t.Error("clean run marked interrupted")
	}
	if len(doc.Campaigns) != 1 {
		t.Errorf("got %d campaigns, want 1", len(doc.Campaigns))
	}
	nd, err := os.ReadFile(ndPath)
	if err != nil {
		t.Fatalf("ndjson: %v", err)
	}
	if len(bytes.TrimSpace(nd)) == 0 {
		t.Error("empty telemetry stream")
	}
}

// TestGridEndToEnd: a two-repeat grid over one target produces a
// summary table and a CSV that reproduces byte-for-byte across runs.
func TestGridEndToEnd(t *testing.T) {
	useInProcFleet(t)
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	grid := `{
		"name": "smoke",
		"targets": ["cass-op-400", "k8s-56261"],
		"strategies": ["partial-history"],
		"seeds": [1],
		"repeats": 2,
		"max_executions": 40,
		"toggles": [{"name": "baseline"}]
	}`
	if err := os.WriteFile(gridPath, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce := func(csvPath string) string {
		var out, errBuf bytes.Buffer
		code := run([]string{"-workers", "2", "-parallel", "2", "-grid", gridPath, "-csv", csvPath}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
		}
		if !strings.Contains(out.String(), "toggle") {
			t.Errorf("no summary table in output:\n%s", out.String())
		}
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatalf("csv: %v", err)
		}
		return string(data)
	}
	csv1 := runOnce(filepath.Join(dir, "a.csv"))
	csv2 := runOnce(filepath.Join(dir, "b.csv"))
	if csv1 != csv2 {
		t.Errorf("grid CSV not deterministic:\n--- first\n%s--- second\n%s", csv1, csv2)
	}
	lines := strings.Split(strings.TrimSpace(csv1), "\n")
	// Header + (2 targets x 2 repeats) rows.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), csv1)
	}
	if !strings.HasPrefix(lines[0], "grid,toggle,repeat,target,") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "smoke,baseline,") {
			t.Errorf("unexpected CSV row: %s", line)
		}
	}
}
