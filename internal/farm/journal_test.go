package farm

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func journalPath(dir string) string { return filepath.Join(dir, journalFile) }

// TestJournalResumeByteIdentity is the crash-resume invariant: settle
// part of a campaign into a journal, "crash", resume with the remainder
// — and the merged artifact is byte-identical to an uninterrupted run.
func TestJournalResumeByteIdentity(t *testing.T) {
	spec := TaskSpec{
		Target:        "cass-op-400",
		Strategy:      "partial-history",
		Seeds:         []int64{1, 2},
		MaxExecutions: 30,
		Parallel:      2,
	}
	tasks := Plan([]string{spec.Target}, []string{spec.Strategy}, spec)
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(tasks))
	}
	fp := TasksFingerprint(tasks)
	cfg := spec.Config()

	// The uninterrupted reference.
	sup := inProcSupervisor(2)
	full, _ := supervisedRun(t, sup, tasks)
	fullMerged, _ := Collate(full)
	want := artifactBytes(t, fullMerged[0], cfg)

	// Simulate the interrupted first run: only task 0's result landed
	// before the "crash".
	dir := t.TempDir()
	j, resumed, err := OpenJournal(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != nil {
		t.Fatalf("fresh journal returned resumed tasks: %v", resumed)
	}
	if err := j.Result(0, full[0].Res, ""); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Resume: task 0 comes back settled, only task 1 re-dispatches.
	j2, resumed, err := OpenJournal(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].Res == nil {
		t.Fatalf("resumed = %v, want task 0 settled", resumed)
	}
	var dispatched atomic.Int32
	sup2 := inProcSupervisor(2)
	base := sup2.Factory
	sup2.Factory = func(slot, spawn int) Transport {
		dispatched.Add(1)
		return base(slot, spawn)
	}
	sup2.Journal = j2
	results, report, interrupted, err := RunSupervised(context.Background(), sup2, tasks, resumed)
	j2.Close()
	if err != nil || interrupted {
		t.Fatalf("resumed run: err=%v interrupted=%v", err, interrupted)
	}
	if report.Resumed != 1 {
		t.Errorf("report.Resumed = %d, want 1", report.Resumed)
	}
	merged, incomplete := Collate(results)
	if len(incomplete) > 0 || len(merged) != 1 {
		t.Fatalf("resumed collate: merged=%d incomplete=%v", len(merged), incomplete)
	}
	if got := artifactBytes(t, merged[0], cfg); !bytes.Equal(got, want) {
		t.Error("resumed artifact differs from uninterrupted run")
	}

	// A fully-settled journal resumes to a no-op fleet: zero spawns.
	j3, resumed, err := OpenJournal(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(resumed) != 2 {
		t.Fatalf("second resume found %d settled tasks, want 2", len(resumed))
	}
	spawnsBefore := dispatched.Load()
	sup3 := inProcSupervisor(2)
	sup3.Factory = sup2.Factory
	results3, _, _, err := RunSupervised(context.Background(), sup3, tasks, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := dispatched.Load(); n != spawnsBefore {
		t.Errorf("fully-resumed run still spawned %d workers", n-spawnsBefore)
	}
	merged3, _ := Collate(results3)
	if got := artifactBytes(t, merged3[0], cfg); !bytes.Equal(got, want) {
		t.Error("fully-resumed artifact differs from uninterrupted run")
	}
}

// TestJournalTornTail: a journal whose last line tore mid-write (no
// newline, or unparseable) resumes cleanly — the torn task simply
// re-runs — and the next append starts on a fresh line.
func TestJournalTornTail(t *testing.T) {
	spec := TaskSpec{Target: "t", Strategy: "s", Seeds: []int64{1}}
	tasks := []TaskSpec{spec}
	fp := TasksFingerprint(tasks)

	for _, torn := range []string{
		`{"v":1,"kind":"resu`,     // unterminated partial write
		"{\"v\":1,\"kind\":\"x\n", // terminated but mangled JSON
	} {
		dir := t.TempDir()
		j, _, err := OpenJournal(dir, fp, false)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(torn)
		f.Close()

		j2, resumed, err := OpenJournal(dir, fp, true)
		if err != nil {
			t.Fatalf("torn tail %q not tolerated: %v", torn, err)
		}
		if len(resumed) != 0 {
			t.Errorf("torn tail %q resumed phantom tasks: %v", torn, resumed)
		}
		// Appending after the chop must leave every line parseable.
		if err := j2.Result(0, nil, "task error"); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if _, _, err := OpenJournal(dir, fp, true); err != nil {
			t.Errorf("journal unreadable after post-torn append: %v", err)
		}
	}
}

// TestJournalCorruptMiddle: a mangled line with intact lines after it is
// corruption, not a torn tail — resume must fail loudly.
func TestJournalCorruptMiddle(t *testing.T) {
	spec := TaskSpec{Target: "t", Strategy: "s", Seeds: []int64{1}}
	tasks := []TaskSpec{spec}
	fp := TasksFingerprint(tasks)
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Result(0, nil, "x")
	j.Close()

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitN(data, []byte("\n"), 2)
	mangled := append([]byte("GARBAGE NOT JSON\n"), lines[1]...)
	if err := os.WriteFile(journalPath(dir), append(lines[0], append([]byte("\n"), mangled...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir, fp, true); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("mid-file corruption not detected: err=%v", err)
	}
}

// TestJournalGuards: version and fingerprint mismatches refuse to
// resume rather than silently mixing campaigns.
func TestJournalGuards(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir),
		[]byte(`{"v":99,"kind":"header","fingerprint":"abc"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir, "abc", true); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future journal version accepted: err=%v", err)
	}

	dir2 := t.TempDir()
	j, _, err := OpenJournal(dir2, "fingerprint-A", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := OpenJournal(dir2, "fingerprint-B", true); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Errorf("fingerprint mismatch accepted: err=%v", err)
	}

	// Headerless non-empty journal: refuse.
	dir3 := t.TempDir()
	if err := os.WriteFile(journalPath(dir3), []byte(`{"v":1,"kind":"result","task_id":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir3, "x", true); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("headerless journal accepted: err=%v", err)
	}

	// Missing journal resumes as a fresh run.
	dir4 := t.TempDir()
	j4, resumed, err := OpenJournal(dir4, "x", true)
	if err != nil || len(resumed) != 0 {
		t.Errorf("missing journal: err=%v resumed=%v, want fresh start", err, resumed)
	}
	if j4 != nil {
		j4.Close()
	}
}

// TestTasksFingerprint: any result-shaping change to the task list
// changes the fingerprint; identical lists agree.
func TestTasksFingerprint(t *testing.T) {
	tasks := Plan([]string{"a"}, []string{"s"}, TaskSpec{Seeds: []int64{1, 2}, MaxExecutions: 10})
	same := Plan([]string{"a"}, []string{"s"}, TaskSpec{Seeds: []int64{1, 2}, MaxExecutions: 10})
	if TasksFingerprint(tasks) != TasksFingerprint(same) {
		t.Error("identical task lists fingerprint differently")
	}
	for name, other := range map[string][]TaskSpec{
		"seeds":   Plan([]string{"a"}, []string{"s"}, TaskSpec{Seeds: []int64{1, 3}, MaxExecutions: 10}),
		"max":     Plan([]string{"a"}, []string{"s"}, TaskSpec{Seeds: []int64{1, 2}, MaxExecutions: 11}),
		"targets": Plan([]string{"b"}, []string{"s"}, TaskSpec{Seeds: []int64{1, 2}, MaxExecutions: 10}),
	} {
		if TasksFingerprint(tasks) == TasksFingerprint(other) {
			t.Errorf("changed %s, fingerprint unchanged", name)
		}
	}
}
