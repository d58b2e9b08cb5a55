package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestMain doubles as the worker-process helper: when FARM_TEST_WORKER
// is set, the test binary re-exec'd by ProcessTransport tests acts out a
// scripted worker instead of running the suite.
func TestMain(m *testing.M) {
	switch os.Getenv("FARM_TEST_WORKER") {
	case "":
		os.Exit(m.Run())
	case "ok":
		if err := WorkerLoop(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "crash":
		// Announce ready, accept one task, then die mid-write with noise
		// on stderr — the shape of a worker the supervisor must convict
		// on evidence: torn frame, exit status, stderr tail.
		fmt.Fprintln(os.Stderr, "worker exploding: simulated crash")
		enc := json.NewEncoder(os.Stdout)
		_ = enc.Encode(wireMsg{Type: msgReady, Proto: ProtocolVersion})
		sc := bufio.NewScanner(os.Stdin)
		sc.Scan()
		_, _ = os.Stdout.WriteString(`{"type":"result","task`)
		os.Exit(3)
	default:
		fmt.Fprintln(os.Stderr, "unknown FARM_TEST_WORKER mode")
		os.Exit(2)
	}
}

// inProcSupervisor returns a Supervisor over clean in-process workers
// that respawn without a backoff delay.
func inProcSupervisor(workers int) *Supervisor {
	return &Supervisor{
		Factory: func(slot, spawn int) Transport { return NewInProcTransport() },
		Workers: workers,
		sleep:   func(time.Duration) {},
	}
}

// chaosFactory wraps each slot's FIRST incarnation with its scripted
// fault; respawns come up clean — the same policy as phfarm -chaos.
func chaosFactory(faults []Fault) func(slot, spawn int) Transport {
	return func(slot, spawn int) Transport {
		tr := Transport(NewInProcTransport())
		if spawn == 0 && slot < len(faults) && faults[slot].Kind != "" {
			return &FaultTransport{Inner: tr, Fault: faults[slot]}
		}
		return tr
	}
}

func supervisedRun(t *testing.T, sup *Supervisor, tasks []TaskSpec) ([]TaskResult, FleetReport) {
	t.Helper()
	results, report, interrupted, err := RunSupervised(context.Background(), sup, tasks, nil)
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if interrupted {
		t.Fatal("RunSupervised reported interrupt without cancellation")
	}
	return results, report
}

// TestSupervisedByteIdentityUnderFaults is the tentpole invariant: a
// fleet with injected worker crashes — kill, torn write, stall — merges
// to byte-identical canonicalized artifact and telemetry versus a
// failure-free single-process run, at 1, 2, and 3 workers. Retried
// tasks re-execute deterministically, so supervision must be invisible
// in the campaign's outputs.
func TestSupervisedByteIdentityUnderFaults(t *testing.T) {
	spec := TaskSpec{
		Target:        "cass-op-400",
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 30,
		Parallel:      2,
	}
	direct := directRun(t, spec)
	cfg := spec.Config()
	wantArt := artifactBytes(t, direct, cfg)
	wantND := ndjsonBytes(t, direct, cfg)

	// Slot 0 is killed mid-stream, slot 1's stream tears mid-frame, slot
	// 2 stalls silently until the task deadline convicts it. Frames >= 2
	// so the handshake always succeeds and the death lands on a task.
	faults := []Fault{
		{Kind: FaultKill, Frame: 4},
		{Kind: FaultTorn, Frame: 6},
		{Kind: FaultStall, Frame: 3},
	}
	for _, workers := range []int{1, 2, 3} {
		tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
		sup := inProcSupervisor(workers)
		sup.Factory = chaosFactory(faults[:workers])
		sup.Deadline = func(TaskSpec) time.Duration { return 2 * time.Second * raceSlowdown }
		// Task assignment races across slots, so several first-spawn faults
		// can land on the same task; raise the kill threshold so this test
		// exercises retry, not quarantine (which has its own test below).
		sup.taskKills = len(faults) + 1
		results, report := supervisedRun(t, sup, tasks)
		if len(report.Deaths) == 0 {
			t.Fatalf("workers=%d: chaos injected no deaths", workers)
		}
		if len(report.Quarantined) != 0 {
			t.Fatalf("workers=%d: unexpected quarantine: %+v", workers, report)
		}
		merged, incomplete := Collate(results)
		if len(incomplete) > 0 || len(merged) != 1 {
			t.Fatalf("workers=%d: merged=%d incomplete=%v", workers, len(merged), incomplete)
		}
		// The merged cell carries fleet counters pre-canonicalization...
		if merged[0].Stats.Fleet == nil || merged[0].Stats.Fleet.WorkerDeaths == 0 {
			t.Errorf("workers=%d: merged cell lost its fleet counters: %+v", workers, merged[0].Stats.Fleet)
		}
		// ...and none after: chaos and failure-free runs emit the same bytes.
		if got := artifactBytes(t, merged[0], cfg); !bytes.Equal(got, wantArt) {
			t.Errorf("workers=%d: chaos artifact differs from failure-free run", workers)
		}
		if got := ndjsonBytes(t, merged[0], cfg); !bytes.Equal(got, wantND) {
			t.Errorf("workers=%d: chaos telemetry differs from failure-free run", workers)
		}
	}
}

// TestPoisonTaskQuarantine: a task that kills every worker it touches
// is quarantined after MaxTaskKills distinct deaths instead of grinding
// the fleet down, and the rest of the campaign completes. The merged
// cell is deterministic across worker counts.
func TestPoisonTaskQuarantine(t *testing.T) {
	spec := TaskSpec{
		Target:        "cass-op-400",
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 30,
		Parallel:      2,
	}
	// Task 1 (seed 2) is poison: any worker that streams a frame for it
	// dies instantly, every incarnation. (Task-scoped faults need ID >=
	// 1: task 0's frames omit the task_id field on the wire.)
	poison := 1
	factory := func(slot, spawn int) Transport {
		return &FaultTransport{
			Inner: NewInProcTransport(),
			Fault: Fault{Kind: FaultKill, Frame: 1, Task: &poison},
		}
	}

	var artifacts [][]byte
	for _, workers := range []int{1, 2, 3} {
		tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
		sup := inProcSupervisor(workers)
		sup.Factory = factory
		results, report := supervisedRun(t, sup, tasks)

		if results[0].Res == nil {
			t.Fatalf("workers=%d: healthy task 0 did not complete", workers)
		}
		q := results[poison].Quarantine
		if q == nil {
			t.Fatalf("workers=%d: poison task not quarantined: %+v", workers, results[poison])
		}
		if q.Kills != 2 || len(results[poison].Deaths) != 2 {
			t.Errorf("workers=%d: quarantined after %d kills, want 2 (default)", workers, q.Kills)
		}
		if results[poison].Res != nil {
			t.Errorf("workers=%d: quarantined task also has a result", workers)
		}
		if len(report.Quarantined) != 1 || report.Quarantined[0] != poison {
			t.Errorf("workers=%d: report.Quarantined = %v, want [%d]", workers, report.Quarantined, poison)
		}

		merged, incomplete := Collate(results)
		if len(incomplete) > 0 {
			t.Fatalf("workers=%d: quarantined cell treated as incomplete: %v", workers, incomplete)
		}
		if len(merged) != 1 {
			t.Fatalf("workers=%d: got %d merged cells, want 1", workers, len(merged))
		}
		m := merged[0]
		fl := m.Stats.Fleet
		if fl == nil || fl.TasksQuarantined != 1 || fl.WorkerDeaths < 2 {
			t.Errorf("workers=%d: merged fleet counters wrong: %+v", workers, fl)
		}
		// The quarantine surfaces as an execution-failure record, kind
		// "quarantine", on the poisoned seed.
		found := false
		for _, f := range m.Failures {
			if f.Kind == "quarantine" && f.Seed == 2 && f.Index == -1 {
				found = true
			}
		}
		if !found {
			t.Errorf("workers=%d: no quarantine failure record: %+v", workers, m.Failures)
		}
		// Headline: seed 1 completed and detects; the quarantined seed
		// contributes zero executions, deterministically.
		if len(m.Seeds) != 2 {
			t.Fatalf("workers=%d: merged %d seed results, want 2", workers, len(m.Seeds))
		}
		artifacts = append(artifacts, artifactBytes(t, m, spec.Config()))
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Errorf("quarantined-cell artifact differs between worker counts 1 and %d", i+1)
		}
	}
}

// TestProcessWorkerDeathEvidence re-execs the test binary as a crashing
// subprocess worker and checks the conviction file: protocol-violation
// cause, exit-status detail, and the stderr tail in the death record.
func TestProcessWorkerDeathEvidence(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := TaskSpec{
		Target:        "cass-op-400",
		Strategy:      "partial-history",
		Seeds:         []int64{1},
		MaxExecutions: 10,
		Parallel:      1,
	}
	tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
	t.Setenv("FARM_TEST_WORKER", "crash") // the worker inherits the environment
	sup := &Supervisor{
		Factory:   func(slot, spawn int) Transport { return &ProcessTransport{Path: exe} },
		Workers:   1,
		taskKills: 1, // first death quarantines; no healthy respawn exists
		sleep:     func(time.Duration) {},
	}
	results, report, _, err := RunSupervised(context.Background(), sup, tasks, nil)
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	if results[0].Quarantine == nil {
		t.Fatalf("crashing worker's task not quarantined: %+v", results[0])
	}
	if len(report.Deaths) != 1 {
		t.Fatalf("got %d deaths, want 1: %+v", len(report.Deaths), report.Deaths)
	}
	d := report.Deaths[0]
	if d.Cause != DeathProtocol {
		t.Errorf("death cause = %q, want %q (torn frame)", d.Cause, DeathProtocol)
	}
	if !strings.Contains(d.StderrTail, "worker exploding") {
		t.Errorf("stderr tail lost the worker's last words: %q", d.StderrTail)
	}
	if d.TaskID != 0 {
		t.Errorf("death not attributed to task 0: %+v", d)
	}
}

// TestSupervisorBackoff: capped exponential growth with jitter in
// [d/2, d].
func TestSupervisorBackoff(t *testing.T) {
	prevMax := time.Duration(0)
	for fails := 1; fails <= 10; fails++ {
		want := 50 * time.Millisecond << (fails - 1)
		if want > 2*time.Second {
			want = 2 * time.Second
		}
		for i := 0; i < 20; i++ {
			got := backoff(fails)
			if got < want/2 || got > want {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", fails, got, want/2, want)
			}
		}
		if want < prevMax {
			t.Fatalf("backoff ceiling shrank: %v after %v", want, prevMax)
		}
		prevMax = want
	}
}

// TestDefaultTaskDeadline scales with seed count and event budget.
func TestDefaultTaskDeadline(t *testing.T) {
	base := DefaultTaskDeadline(TaskSpec{Seeds: []int64{1}})
	if base != 2*time.Minute {
		t.Errorf("single-seed default = %v, want 2m", base)
	}
	if got := DefaultTaskDeadline(TaskSpec{Seeds: []int64{1, 2, 3}}); got != 3*base {
		t.Errorf("3-seed deadline = %v, want %v", got, 3*base)
	}
	big := DefaultTaskDeadline(TaskSpec{Seeds: []int64{1}, EventBudget: campaign.DefaultEventBudget * 4})
	if big != 4*base {
		t.Errorf("4x budget deadline = %v, want %v", big, 4*base)
	}
	// Budgets below the default never shrink the allowance.
	small := DefaultTaskDeadline(TaskSpec{Seeds: []int64{1}, EventBudget: 10})
	if small != base {
		t.Errorf("small budget deadline = %v, want %v", small, base)
	}
}
