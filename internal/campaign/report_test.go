package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestArtifactRoundTrip runs a collecting campaign, writes campaign.json,
// reads it back, and checks the document is a faithful, valid artifact.
func TestArtifactRoundTrip(t *testing.T) {
	target := workload.Target56261()
	cfg := Config{Workers: 2, MaxExecutions: 10, Collect: true}
	res := New(cfg).Run(target, core.NewPlanner())
	if !res.Detected {
		t.Fatalf("campaign missed 56261: %+v", res.Campaign)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("Collect produced no outcomes")
	}
	// The reference run must be present as index -1.
	if res.Outcomes[0].Index != -1 || res.Outcomes[0].Plan != "nop" {
		t.Fatalf("first outcome should be the reference run, got %+v", res.Outcomes[0])
	}
	for _, o := range res.Outcomes {
		if o.Signature == "" {
			t.Fatalf("collected outcome missing signature: %+v", o)
		}
		if o.Class == "" {
			t.Fatalf("collected outcome missing class: %+v", o)
		}
	}

	path := filepath.Join(t.TempDir(), "campaign.json")
	art := BuildArtifact(res, cfg)
	if err := WriteArtifactsStatus(path, []Artifact{art}, false); err != nil {
		t.Fatal(err)
	}

	// The file must be valid JSON with the expected envelope.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if _, ok := envelope["campaigns"]; !ok {
		t.Fatal("artifact missing campaigns field")
	}

	back, err := ReadArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d campaigns, want 1", len(back))
	}
	got := back[0]
	if got.Target != target.Name || got.Strategy != "partial-history" {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if got.Detected != res.Detected || got.Campaign.Executions != res.Campaign.Executions {
		t.Fatalf("result fields lost: %+v vs %+v", got.Campaign, res.Campaign)
	}
	if len(got.Outcomes) != len(res.Outcomes) {
		t.Fatalf("outcomes lost: %d vs %d", len(got.Outcomes), len(res.Outcomes))
	}
	if got.Stats.RawExecutions != res.Stats.RawExecutions {
		t.Fatalf("stats lost: %+v vs %+v", got.Stats, res.Stats)
	}
}

// TestFailureDedup checks that repeated violating executions with the
// same signature collapse into one bucket with an accurate count.
func TestFailureDedup(t *testing.T) {
	target := workload.Target56261()
	// KeepGoing + a plan budget large enough to hit the bug repeatedly:
	// the planner's top candidates are many timing variants of the same
	// scheduler-misses-node-deletion gap, which all produce the same
	// violation signature.
	cfg := Config{Workers: 2, MaxExecutions: 25, KeepGoing: true, Collect: true}
	res := New(cfg).Run(target, core.NewPlanner())
	if !res.Detected {
		t.Fatalf("campaign missed 56261: %+v", res.Campaign)
	}
	violating := 0
	for _, o := range res.Outcomes {
		if len(o.Violations) > 0 {
			violating++
		}
	}
	total := 0
	for _, b := range res.Buckets {
		total += b.Count
		if len(b.Oracles) == 0 {
			t.Fatalf("bucket without oracles: %+v", b)
		}
	}
	if total != violating {
		t.Fatalf("buckets count %d executions, outcomes show %d violating", total, violating)
	}
	if len(res.Buckets) >= violating && violating > 1 {
		t.Fatalf("dedup had no effect: %d buckets for %d violating executions",
			len(res.Buckets), violating)
	}
}

// TestSignatureStability: the same (plan, seed) always produces the same
// signature, and a detecting execution's signature differs from the
// reference's.
func TestSignatureStability(t *testing.T) {
	target := workload.Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	plans := core.NewPlanner().Plans(target, ref)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	sigOf := func(p core.Plan) (core.Execution, Signature) {
		exec, tr := runGuarded(target, p, 1, true, 0)
		return exec, signatureOrZero(tr, exec)
	}
	e1, s1 := sigOf(plans[0])
	e2, s2 := sigOf(plans[0])
	if s1 != s2 {
		t.Fatalf("replay changed signature: %s vs %s", s1, s2)
	}
	if e1.Detected != e2.Detected {
		t.Fatal("replay changed detection")
	}
	_, sNop := sigOf(core.NopPlan{})
	if e1.Detected && s1 == sNop {
		t.Fatal("detecting execution shares the reference signature")
	}
}
