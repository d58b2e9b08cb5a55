package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriftAndCommittedArtifacts recomputes the five committed artifacts
// from copies, one of which has a value changed: exactly that value must be
// reported as drift, and the other four artifacts must agree.
func TestDriftAndCommittedArtifacts(t *testing.T) {
	if raceBuild {
		t.Skip("recomputing every artifact takes minutes under -race; CI's drift step runs it")
	}
	dir := t.TempDir()
	args := []string{"-json", "-parallel", "2"}
	for _, e := range []string{"e5", "e6", "e10", "e11", "e12"} {
		name := "BENCH_" + strings.ToUpper(e) + ".json"
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if e == "e6" {
			edited := bytes.Replace(data, []byte(`"executions": 51,`), []byte(`"executions": 52,`), 1)
			if bytes.Equal(edited, data) {
				t.Fatal("BENCH_E6.json has no random cell at 51 executions to change")
			}
			data = edited
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-"+e, path)
	}

	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (drift)\n%s", code, stderr.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Artifacts) != 5 {
		t.Fatalf("%d artifacts reported, want 5", len(rep.Artifacts))
	}
	for _, a := range rep.Artifacts {
		if a.Error != "" {
			t.Errorf("%s: %s", a.Path, a.Error)
		}
		if filepath.Base(a.Path) != "BENCH_E6.json" {
			if a.Drift {
				t.Errorf("committed %s drifted: %+v", filepath.Base(a.Path), a.Entries)
			}
			continue
		}
		if len(a.Entries) != 1 || a.Entries[0].Path != ".rows[0].random.executions" || a.Entries[0].Committed != "52" || a.Entries[0].Fresh != "51" {
			t.Errorf("E6 drift = %+v, want the one changed field", a.Entries)
		}
	}
}
