package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/workload"
)

const strat = "partial-history"

// runCell runs target's partial-history campaign on seed 1 the way a farm
// task runs it: outcomes collected, seeded from cov.
func runCell(t *testing.T, target string, cov *campaign.CoverageSeed) campaign.Result {
	t.Helper()
	for _, tg := range workload.AllTargets() {
		if tg.Name == target {
			cfg := campaign.Config{Workers: 2, Seeds: []int64{1}, Collect: true, Coverage: cov}
			return campaign.New(cfg).Run(tg, core.NewPlanner())
		}
	}
	t.Fatalf("unknown target %s", target)
	return campaign.Result{}
}

func totalExecs(res campaign.Result) int {
	n := 0
	for _, sr := range res.Seeds {
		n += sr.Campaign.Executions
	}
	return n
}

func bucketSigs(res campaign.Result) map[string]bool {
	sigs := map[string]bool{}
	for _, b := range res.Buckets {
		sigs[b.Signature] = true
	}
	return sigs
}

// TestResumeSkipsAndKeepsBuckets is the corpus acceptance criterion: a
// resumed campaign executes at least 25% fewer plans on multiple
// targets, while re-confirming every previously-detected bucket
// signature (zero lost buckets).
func TestResumeSkipsAndKeepsBuckets(t *testing.T) {
	for _, target := range []string{"k8s-59848", "cass-op-400"} {
		target := target
		t.Run(target, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()

			first := runCell(t, target, nil)
			if !first.Detected {
				t.Fatalf("cold run did not detect — corpus test needs buckets to remember")
			}
			if err := Record(dir, target, strat, first); err != nil {
				t.Fatalf("record: %v", err)
			}

			cov, err := Load(dir, target, strat)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if cov == nil {
				t.Fatal("load returned nil for a recorded cell")
			}
			if len(cov.Regression) == 0 {
				t.Fatal("no regression plans remembered despite detection")
			}

			second := runCell(t, target, cov)
			e1, e2 := totalExecs(first), totalExecs(second)
			if e2 >= e1 {
				t.Errorf("resume executed %d >= cold %d", e2, e1)
			}
			if e2 > e1*3/4 {
				t.Errorf("resume executed %d of %d — less than the required 25%% reduction", e2, e1)
			}
			if second.Stats.CorpusSkippedPlans == 0 {
				t.Error("resume recorded zero corpus skips")
			}
			if second.Stats.CorpusRegressionPlans == 0 {
				t.Error("resume recorded zero regression plans")
			}
			if !second.Detected {
				t.Error("resume lost the detection")
			}
			got := bucketSigs(second)
			for sig := range bucketSigs(first) {
				if !got[sig] {
					t.Errorf("bucket signature %s lost on resume", sig)
				}
			}
		})
	}
}

// TestRecordMergePreservesSkipped: recording a resumed campaign (which
// skipped most plans) must not erase the skipped plans' entries —
// skipping must not forget.
func TestRecordMergePreservesSkipped(t *testing.T) {
	const target = "cass-op-400"
	dir := t.TempDir()

	first := runCell(t, target, nil)
	if err := Record(dir, target, strat, first); err != nil {
		t.Fatalf("record: %v", err)
	}
	before := readFile(t, dir, target)
	if len(before.PlanSigs[1]) == 0 {
		t.Fatal("cold record stored no healthy plan signatures")
	}

	cov, err := Load(dir, target, strat)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	second := runCell(t, target, cov)
	if err := Record(dir, target, strat, second); err != nil {
		t.Fatalf("re-record: %v", err)
	}
	after := readFile(t, dir, target)
	for plan, sig := range before.PlanSigs[1] {
		if after.PlanSigs[1][plan] != sig {
			t.Errorf("plan %q lost or changed after re-record: had %q, have %q",
				plan, sig, after.PlanSigs[1][plan])
		}
	}
	for _, b := range before.Buckets {
		found := false
		for _, a := range after.Buckets {
			if a.Signature == b.Signature {
				found = true
				if a.Count < b.Count {
					t.Errorf("bucket %s count shrank: %d -> %d", b.Signature, b.Count, a.Count)
				}
			}
		}
		if !found {
			t.Errorf("bucket %s lost after re-record", b.Signature)
		}
	}
}

// TestRefHashInvalidation: a corpus recorded under a different reference
// state hash must be ignored wholesale for that seed — the campaign runs
// cold and reports the invalidation.
func TestRefHashInvalidation(t *testing.T) {
	const target = "cass-op-400"
	dir := t.TempDir()

	first := runCell(t, target, nil)
	if err := Record(dir, target, strat, first); err != nil {
		t.Fatalf("record: %v", err)
	}

	// Tamper with the recorded world hash, as a code/workload change would.
	f := readFile(t, dir, target)
	f.RefHash[1] = "0000000000000000"
	writeFile(t, dir, target, f)

	cov, err := Load(dir, target, strat)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	third := runCell(t, target, cov)
	if third.Stats.CorpusInvalidatedSeeds != 1 {
		t.Errorf("CorpusInvalidatedSeeds = %d, want 1", third.Stats.CorpusInvalidatedSeeds)
	}
	if third.Stats.CorpusSkippedPlans != 0 || third.Stats.CorpusRegressionPlans != 0 {
		t.Errorf("invalidated seed still used corpus: %+v", third.Stats)
	}
	if e1, e3 := totalExecs(first), totalExecs(third); e1 != e3 {
		t.Errorf("invalidated run executed %d, cold run executed %d — should match", e3, e1)
	}
}

// TestVersionMismatch: a future-versioned file is an error, not silently
// misread.
func TestVersionMismatch(t *testing.T) {
	const target = "cass-op-400"
	dir := t.TempDir()
	writeFile(t, dir, target, &File{Version: 99, Target: target, Strategy: strat})
	if _, err := Load(dir, target, strat); err == nil {
		t.Fatal("expected version-mismatch error")
	}
}

// TestLoadColdCell: a never-recorded cell is a cold start, not an error.
func TestLoadColdCell(t *testing.T) {
	cov, err := Load(t.TempDir(), "k8s-59848", strat)
	if err != nil || cov != nil {
		t.Fatalf("cold cell: got (%v, %v), want (nil, nil)", cov, err)
	}
}

func readFile(t *testing.T, dir, target string) *File {
	t.Helper()
	data, err := os.ReadFile(cellPath(dir, target, strat))
	if err != nil {
		t.Fatalf("read corpus file: %v", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parse corpus file: %v", err)
	}
	return &f
}

func writeFile(t *testing.T, dir, target string, f *File) {
	t.Helper()
	path := cellPath(dir, target, strat)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
