package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/workload"
)

// run is runCtx without cancellation.
func run(args []string, stdout, stderr io.Writer) int {
	return runCtx(context.Background(), args, stdout, stderr)
}

// The table-driven test of the cell rules lives with TaskSpec.Validate in
// internal/farm (TestValidateFlags); here are -explore's own exclusions,
// and the full CLI path for both.

// TestExploreConflict: exhaustive mode rejects the campaign switches it
// has no use for, and accepts -fixed (certifying a fixed variant is the
// healthy baseline).
func TestExploreConflict(t *testing.T) {
	cases := []struct {
		name    string
		spec    farm.TaskSpec
		wantErr string // substring; "" means the combination is valid
	}{
		{"explore-alone", farm.TaskSpec{}, ""},
		{"explore-with-fixed", farm.TaskSpec{Fixed: true}, ""},
		{"explore-with-guided", farm.TaskSpec{Guided: true}, "-explore is incompatible with -guided"},
		{"explore-with-prune", farm.TaskSpec{Prune: true}, "-explore is incompatible with -prune"},
		{"explore-with-snapshot", farm.TaskSpec{Snapshot: true}, "-explore is incompatible with -snapshot"},
		{"explore-with-explain", farm.TaskSpec{Explain: true}, "-explore is incompatible with -explain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := exploreConflict(tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRejectedFlagsExitTwo verifies the full path: run() with a rejected
// flag combination returns exit code 2 and prints the reason to stderr
// before any campaign executes.
func TestRejectedFlagsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-ranked"},
		{"-snapshot", "-fixed"},
		{"-explore", "-guided"},
		{"-explore", "-prune"},
		{"-explore", "-snapshot"},
		{"-explore", "-explain"},
		{"-targets", "no-such-bug"},
		{"-targets", "k8s-56261,k8s-56261"},
		{"-strategies", "cofi,cofi"},
		{"-seeds", "1,x"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("run(%v) = %d, want exit code 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Fatalf("run(%v) rejected without a descriptive error", args)
		}
	}
	// Sanity: a valid flag set must not trip the validator. Use -max 0
	// with an undetectable pairing so the campaign itself stays tiny.
	var stdout, stderr bytes.Buffer
	code := run([]string{"-targets", "k8s-56261", "-strategies", "crashtuner", "-max", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("valid invocation exited %d: %s", code, stderr.String())
	}
}

func TestSelectTargets(t *testing.T) {
	all, err := farm.ResolveTargets("all", false)
	if err != nil || len(all) != 5 {
		t.Fatalf("all: %d targets, err=%v", len(all), err)
	}
	two, err := farm.ResolveTargets("k8s-59848, cass-op-402", false)
	if err != nil || len(two) != 2 || two[0].Name != "k8s-59848" || two[1].Name != "cass-op-402" {
		t.Fatalf("subset: %+v err=%v", two, err)
	}
	if _, err := farm.ResolveTargets("no-such-bug", false); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestSelectStrategies(t *testing.T) {
	all, err := farm.ResolveStrategies("all", 1, 10)
	if err != nil || len(all) != 4 {
		t.Fatalf("all: %d strategies, err=%v", len(all), err)
	}
	names := map[string]bool{}
	for _, s := range all {
		names[s.Name()] = true
	}
	for _, want := range []string{"partial-history", "crashtuner", "cofi", "random"} {
		if !names[want] {
			t.Fatalf("missing strategy %q in %v", want, names)
		}
	}
	if _, err := farm.ResolveStrategies("quantum", 1, 10); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := farm.ParseSeeds("1, 2,3")
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("parseSeeds: %v err=%v", got, err)
	}
	if _, err := farm.ParseSeeds("1,x"); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, err := farm.ParseSeeds(""); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if _, err := farm.ParseSeeds("1, 2,1"); err == nil {
		t.Fatal("repeated seed accepted")
	}
}

// TestCampaignArtifactRoundTrip runs one campaign the way main does with
// -parallel 2 -json and verifies the emitted artifact is valid and carries
// the campaign result of a 1-worker, uninstrumented engine.
func TestCampaignArtifactRoundTrip(t *testing.T) {
	target := workload.Target56261()
	cfg := campaign.Config{Workers: 2, MaxExecutions: 25, Collect: true}
	res := campaign.New(cfg).Run(target, core.NewPlanner())

	path := filepath.Join(t.TempDir(), "campaign.json")
	art := campaign.BuildArtifact(res, cfg)
	if err := campaign.WriteArtifactsStatus(path, []campaign.Artifact{art}, false); err != nil {
		t.Fatal(err)
	}
	back, err := campaign.ReadArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("artifact count %d, want 1", len(back))
	}
	got := back[0]
	if got.Target != target.Name || got.Strategy != "partial-history" {
		t.Fatalf("artifact identity: %s/%s", got.Target, got.Strategy)
	}
	want := campaign.New(campaign.Config{Workers: 1, MaxExecutions: 25}).Run(target, core.NewPlanner()).Campaign
	if !reflect.DeepEqual(got.Campaign, want) {
		t.Fatalf("artifact campaign diverged from the 1-worker engine\n got: %+v\nwant: %+v", got.Campaign, want)
	}
	if len(got.Outcomes) == 0 {
		t.Fatal("Collect artifact has no per-plan outcomes")
	}
}

// TestExploreArtifactDeterministic runs the exhaustive mode through the
// full CLI twice and asserts the artifact documents are byte-identical,
// schema-stamped, and carry the expected outcome (the CI smoke's
// in-process twin).
func TestExploreArtifactDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-explore", "-targets", "k8s-56261", "-json", p}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("explore exited %d, want 0 (a found violation is a successful run)\nstderr: %s", code, stderr.String())
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("explore artifacts differ across identical reruns")
	}
	var doc exploreArtifact
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Schema != schemaExplore {
		t.Fatalf("schema %q, want %q", doc.Schema, schemaExplore)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Result == nil || doc.Runs[0].Result.Outcome != "violation" {
		t.Fatalf("unexpected runs: %+v", doc.Runs)
	}
	if doc.Runs[0].Result.Witness == nil || doc.Runs[0].Result.Witness.MinimalID == "" {
		t.Fatal("violation run carries no minimized witness")
	}
}

// TestInterruptFlushesPartialArtifact is the graceful-shutdown
// regression test: a cancelled context (what SIGINT/SIGTERM deliver via
// signal.NotifyContext) must still produce a valid artifact document
// marked "interrupted": true, and exit 130.
func TestInterruptFlushesPartialArtifact(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal arrives before the sweep starts
	artPath := filepath.Join(t.TempDir(), "campaign.json")
	var out, errBuf bytes.Buffer
	code := runCtx(ctx, []string{
		"-targets", "cass-op-400", "-strategies", "partial-history",
		"-max", "20", "-json", artPath,
	}, &out, &errBuf)
	if code != 130 {
		t.Fatalf("exit %d, want 130\nstderr: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatalf("interrupted run left no artifact: %v", err)
	}
	var doc struct {
		Tool        string `json:"tool"`
		Interrupted bool   `json:"interrupted"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if !doc.Interrupted {
		t.Error("artifact not marked interrupted")
	}
}
