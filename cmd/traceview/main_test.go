package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/farm"
)

// TestTargets renders every target's reference analysis with every section
// on.
func TestTargets(t *testing.T) {
	for _, name := range farm.AllTargetNames() {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-target", name, "-deps", "-events", "-plans", "3"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{
			"reference execution of " + name,
			"\ndeliveries:\n",
			"\nlearned read-dependency profiles",
			"\nhottest deliveries",
			"\ngenerated plans: ",
			"\n    3. ",
			" more\n",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q", name, want)
			}
		}
		if strings.Contains(out, "UNEXPECTED") {
			t.Errorf("%s: reference run violates an oracle:\n%s", name, out)
		}
	}
}

// TestArtifact renders the explanation of an explained k8s-56261 campaign.
func TestArtifact(t *testing.T) {
	spec := farm.TaskSpec{Target: "k8s-56261", Strategy: "partial-history", Seeds: []int64{1}, MaxExecutions: 10, Explain: true}
	res, err := farm.RunTask(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := campaign.WriteArtifactsStatus(path, []campaign.Artifact{campaign.BuildArtifact(res, spec.Config())}, false); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-artifact", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"=== k8s-56261 / partial-history — DETECTED (seed 1, ", "minimized in ", "\n1 detected buckets, 1 explained\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrors: an unknown target exits 2, a missing artifact 1.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-target", "nope"}, 2},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-artifact", filepath.Join(t.TempDir(), "missing.json")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
