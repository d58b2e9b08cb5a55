package campaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// panicPlan is a hostile plan: it schedules a panic inside the kernel
// loop, mid-execution. The worker guard must convert it into a Failed
// record instead of taking the whole pool down.
type panicPlan struct{}

func (p panicPlan) ID() string       { return "test/panic" }
func (p panicPlan) Describe() string { return "inject a panic 500ms into the execution" }
func (p panicPlan) Apply(c *infra.Cluster) {
	c.World.Kernel().Schedule(500*sim.Millisecond, func() {
		panic("injected fault: deliberate test panic")
	})
}

// livelockPlan is a pathological plan: a zero-delay self-reschedule loop
// that stalls virtual time forever. The event-budget watchdog must flag
// the execution Hung instead of spinning until the test times out.
type livelockPlan struct{}

func (p livelockPlan) ID() string       { return "test/livelock" }
func (p livelockPlan) Describe() string { return "zero-delay reschedule loop (stalls virtual time)" }
func (p livelockPlan) Apply(c *infra.Cluster) {
	k := c.World.Kernel()
	var spin func()
	spin = func() { k.Schedule(0, spin) }
	k.Schedule(0, spin)
}

// spliceStrategy wraps an inner strategy and splices one extra plan into
// its (optionally truncated) plan list at a fixed index, so tests can put
// a hostile plan in the middle of an otherwise healthy campaign.
type spliceStrategy struct {
	inner core.Strategy
	at    int
	plan  core.Plan
	max   int
}

func (s spliceStrategy) Name() string { return s.inner.Name() + "+hostile" }
func (s spliceStrategy) Plans(t core.Target, ref *trace.Trace) []core.Plan {
	plans := s.inner.Plans(t, ref)
	if s.max > 0 && len(plans) > s.max {
		plans = plans[:s.max]
	}
	at := s.at
	if at > len(plans) {
		at = len(plans)
	}
	out := make([]core.Plan, 0, len(plans)+1)
	out = append(out, plans[:at]...)
	out = append(out, s.plan)
	out = append(out, plans[at:]...)
	return out
}

// normalize is the shared canonicalization helper (canonical.go): it
// zeroes the wall-clock measurements and the worker-count config echo so
// whole Results can be compared across worker counts with
// reflect.DeepEqual.
func normalize(res Result) Result { return Canonicalize(res) }

// TestPanicBecomesFailedRecord is acceptance criterion 3: a worker panic
// injected mid-campaign yields a Failed execution record carrying the
// plan ID while every remaining plan still executes, and the campaign's
// deterministic result stays byte-identical across worker counts.
func TestPanicBecomesFailedRecord(t *testing.T) {
	target := workload.Target56261()
	mkStrategy := func() core.Strategy {
		return spliceStrategy{inner: core.NewPlanner(), at: 3, plan: panicPlan{}, max: 9}
	}
	mkConfig := func(workers int) Config {
		return Config{Workers: workers, MaxExecutions: 10, KeepGoing: true, Collect: true}
	}

	base := New(mkConfig(1)).Run(target, mkStrategy())

	// The panic became a record, not a crash.
	if base.Stats.FailedExecutions != 1 {
		t.Fatalf("FailedExecutions = %d, want 1 (stats: %+v)", base.Stats.FailedExecutions, base.Stats)
	}
	if base.Stats.HungExecutions != 0 {
		t.Fatalf("HungExecutions = %d, want 0", base.Stats.HungExecutions)
	}
	if len(base.Failures) != 1 {
		t.Fatalf("got %d failure records, want 1: %+v", len(base.Failures), base.Failures)
	}
	f := base.Failures[0]
	if f.Kind != "panic" {
		t.Fatalf("failure kind = %q, want \"panic\"", f.Kind)
	}
	if f.Plan != (panicPlan{}).ID() || f.Index != 3 {
		t.Fatalf("failure identifies plan %q at index %d, want %q at 3", f.Plan, f.Index, (panicPlan{}).ID())
	}
	if !strings.Contains(f.Detail, "injected fault") || !strings.Contains(f.Detail, (panicPlan{}).ID()) {
		t.Fatalf("failure detail must carry the panic value and plan ID:\n%s", f.Detail)
	}
	// The sanitized stack must not carry worker-dependent noise.
	for _, forbidden := range []string{"goroutine ", "+0x"} {
		if strings.Contains(f.Detail, forbidden) {
			t.Fatalf("failure detail contains non-deterministic stack element %q:\n%s", forbidden, f.Detail)
		}
	}

	// Every remaining plan completed: reference + 9 planner plans + the
	// hostile plan, all present in the collected outcomes.
	if want := 9 + 1 + 1; len(base.Outcomes) != want {
		t.Fatalf("collected %d outcomes, want %d (remaining plans must complete)", len(base.Outcomes), want)
	}
	var failedOutcomes, healthyOutcomes int
	for _, out := range base.Outcomes {
		if out.Failed {
			failedOutcomes++
			if out.Plan != (panicPlan{}).ID() {
				t.Fatalf("failed outcome names plan %q, want %q", out.Plan, (panicPlan{}).ID())
			}
			if out.Signature != "" {
				t.Fatalf("failed outcome must not carry a coverage signature: %+v", out)
			}
		} else {
			healthyOutcomes++
		}
	}
	if failedOutcomes != 1 || healthyOutcomes != 10 {
		t.Fatalf("outcomes split %d failed / %d healthy, want 1 / 10", failedOutcomes, healthyOutcomes)
	}
	// The campaign still found the bug despite the hostile plan.
	if !base.Detected {
		t.Fatalf("campaign with one hostile plan must still detect 56261: %+v", base.Campaign)
	}

	// Byte-identical deterministic results — and telemetry streams — at
	// every worker count.
	var baseStream bytes.Buffer
	if err := WriteNDJSON(&baseStream, base, mkConfig(1)); err != nil {
		t.Fatalf("WriteNDJSON(workers=1): %v", err)
	}
	for _, workers := range []int{2, 4} {
		got := New(mkConfig(workers)).Run(target, mkStrategy())
		if !reflect.DeepEqual(normalize(got), normalize(base)) {
			t.Fatalf("workers=%d: result diverged from serial\n got: %+v\nwant: %+v",
				workers, normalize(got), normalize(base))
		}
		var stream bytes.Buffer
		if err := WriteNDJSON(&stream, got, mkConfig(workers)); err != nil {
			t.Fatalf("WriteNDJSON(workers=%d): %v", workers, err)
		}
		if !bytes.Equal(stream.Bytes(), baseStream.Bytes()) {
			t.Fatalf("workers=%d: telemetry stream diverged from serial", workers)
		}
	}

	// The artifact carries the failure record.
	art := BuildArtifact(base, mkConfig(1))
	if len(art.Failures) != 1 || art.Stats.FailedExecutions != 1 {
		t.Fatalf("artifact lost the failure record: %+v", art.Failures)
	}
}

// TestWatchdogFlagsLivelock verifies the event-budget watchdog: a plan
// that stalls virtual time with a zero-delay reschedule loop is flagged
// Hung (kind "watchdog"), and the campaign completes around it — also with
// Snapshot+Explain on, where sweep executions and explain/minimize probes
// go through the fork substrate and must honour the same configured budget.
func TestWatchdogFlagsLivelock(t *testing.T) {
	target := workload.Target56261()
	strategy := spliceStrategy{inner: core.NewPlanner(), at: 1, plan: livelockPlan{}, max: 4}
	plain := Config{
		Workers:       2,
		MaxExecutions: 5,
		KeepGoing:     true,
		Collect:       true,
		EventBudget:   50_000,
	}
	forked := plain
	forked.Snapshot, forked.Explain = true, true
	for _, cfg := range []Config{plain, forked} {
		res := New(cfg).Run(target, strategy)

		if res.Stats.HungExecutions != 1 {
			t.Fatalf("HungExecutions = %d, want 1 (stats: %+v)", res.Stats.HungExecutions, res.Stats)
		}
		if res.Stats.FailedExecutions != 0 {
			t.Fatalf("FailedExecutions = %d, want 0", res.Stats.FailedExecutions)
		}
		if len(res.Failures) != 1 {
			t.Fatalf("got %d failure records, want 1: %+v", len(res.Failures), res.Failures)
		}
		f := res.Failures[0]
		if f.Kind != "watchdog" {
			t.Fatalf("failure kind = %q, want \"watchdog\"", f.Kind)
		}
		if f.Plan != (livelockPlan{}).ID() || f.Index != 1 {
			t.Fatalf("failure identifies plan %q at index %d, want %q at 1", f.Plan, f.Index, (livelockPlan{}).ID())
		}
		if !strings.Contains(f.Detail, "livelocked") || !strings.Contains(f.Detail, "event budget") {
			t.Fatalf("watchdog detail must explain the livelock:\n%s", f.Detail)
		}
		// The campaign drained every plan despite the livelocked one:
		// reference + 4 planner plans + the hostile plan.
		if want := 4 + 1 + 1; len(res.Outcomes) != want {
			t.Fatalf("collected %d outcomes, want %d", len(res.Outcomes), want)
		}
		for _, out := range res.Outcomes {
			if out.Hung && out.Plan != (livelockPlan{}).ID() {
				t.Fatalf("healthy plan %q was flagged hung — budget %d too tight", out.Plan, cfg.EventBudget)
			}
		}
		// The livelocked plan has no bounded effect time, so replaying it
		// is routine; no healthy fork or probe may trip the budget either.
		if res.Stats.SnapshotFallbacks != nil {
			t.Fatalf("healthy forks fell back under budget %d: %+v", cfg.EventBudget, *res.Stats.SnapshotFallbacks)
		}
		if cfg.Explain && res.Stats.ExplainedBuckets == 0 {
			t.Fatal("Explain produced no explanation: the probe path was not exercised")
		}
	}

	// A probe that outlives the CONFIGURED budget is flagged on both halves
	// of the one execution path: the fork is discarded as a counted watchdog
	// fallback and the canonical full replay reports it Hung. (The tree used
	// to hard-code DefaultEventBudget and explain's replays had no watchdog.)
	ref, _ := core.ReferenceSeed(target, 1)
	plans := core.NewPlanner().Plans(target, ref)
	pt := buildPlanTree(target, core.NopPlan{}, 1, ref, effectTimes(plans, ref))
	if pt == nil {
		t.Fatal("no tree on k8s-56261")
	}
	var probe core.Plan
	for _, p := range plans {
		if pt.forkRung(p) != nil {
			probe = p
			break
		}
	}
	if probe == nil {
		t.Fatal("no forkable plan on k8s-56261: the budget check is vacuous")
	}
	exec, tr, cause := New(Config{EventBudget: 100}).execute(target, probe, 1, true, pt)
	if cause != fallbackWatchdog || !exec.Hung || tr != nil {
		t.Fatalf("probe under a 100-step budget: cause=%d hung=%v trace=%v, want a watchdog fallback and a Hung record",
			cause, exec.Hung, tr != nil)
	}
}

// TestHealthyCampaignHasNoFailures pins the invariant CI's jq checks rely
// on: an ordinary campaign reports zero failed and zero hung executions,
// and those fields are emitted (as 0) in the artifact JSON.
func TestHealthyCampaignHasNoFailures(t *testing.T) {
	res := New(Config{Workers: 2, MaxExecutions: 10, Collect: true}).Run(
		workload.Target56261(), core.NewPlanner())
	if res.Stats.FailedExecutions != 0 || res.Stats.HungExecutions != 0 {
		t.Fatalf("healthy campaign reports failures: %+v", res.Stats)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("healthy campaign carries failure records: %+v", res.Failures)
	}
}
