package farm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeGrid(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadGridValid(t *testing.T) {
	path := writeGrid(t, `{
		"name": "smoke",
		"targets": ["k8s-59848", "cass-op-400"],
		"strategies": ["partial-history"],
		"seeds": [1, 2],
		"repeats": 2,
		"max_executions": 50,
		"toggles": [
			{"name": "baseline"},
			{"name": "guided", "guided": true}
		]
	}`)
	g, err := LoadGrid(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g.Name != "smoke" || g.Repeats != 2 || len(g.Toggles) != 2 {
		t.Fatalf("parsed grid wrong: %+v", g)
	}
}

func TestLoadGridValidation(t *testing.T) {
	cases := map[string]string{
		"missing name":    `{"targets":["a"],"strategies":["s"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"no targets":      `{"name":"g","targets":[],"strategies":["s"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"no seeds":        `{"name":"g","targets":["a"],"strategies":["s"],"seeds":[],"toggles":[{"name":"t"}]}`,
		"repeated seed":   `{"name":"g","targets":["a"],"strategies":["s"],"seeds":[1,2,1],"toggles":[{"name":"t"}]}`,
		"no toggles":      `{"name":"g","targets":["a"],"strategies":["s"],"seeds":[1],"toggles":[]}`,
		"unnamed toggle":  `{"name":"g","targets":["a"],"strategies":["s"],"seeds":[1],"toggles":[{"guided":true}]}`,
		"dup toggle":      `{"name":"g","targets":["a"],"strategies":["s"],"seeds":[1],"toggles":[{"name":"t"},{"name":"t"}]}`,
		"ranked no prune": `{"name":"g","targets":["k8s-59848"],"strategies":["cofi"],"seeds":[1],"toggles":[{"name":"t","ranked":true}]}`,
		"unknown target":  `{"name":"g","targets":["no-such-bug"],"strategies":["cofi"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"unknown strat":   `{"name":"g","targets":["k8s-59848"],"strategies":["quantum"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"repeated target": `{"name":"g","targets":["k8s-59848","k8s-59848"],"strategies":["cofi"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"repeated strat":  `{"name":"g","targets":["k8s-59848"],"strategies":["cofi","cofi"],"seeds":[1],"toggles":[{"name":"t"}]}`,
		"bad json":        `{`,
	}
	for label, body := range cases {
		if _, err := LoadGrid(writeGrid(t, body)); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
	if _, err := LoadGrid(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("absent file: expected error")
	}
}

// TestExpandDeterministicOrder: toggle-major then repeat, with repeat r
// shifting every seed by r*stride — and two Expand calls are identical.
func TestExpandSeedShiftAndOrder(t *testing.T) {
	g := Grid{
		Name:       "g",
		Targets:    []string{"k8s-59848"},
		Strategies: []string{"partial-history"},
		Seeds:      []int64{1, 2},
		Repeats:    3,
		SeedStride: 100,
		Toggles:    []Toggle{{Name: "base"}, {Name: "guided", Guided: true}},
	}
	exps := g.Expand(2)
	if len(exps) != 6 {
		t.Fatalf("got %d experiments, want 6 (2 toggles x 3 repeats)", len(exps))
	}
	// Toggle-major: base r0,r1,r2 then guided r0,r1,r2.
	wantSeeds := [][]int64{{1, 2}, {101, 102}, {201, 202}, {1, 2}, {101, 102}, {201, 202}}
	for i, exp := range exps {
		wantToggle := "base"
		if i >= 3 {
			wantToggle = "guided"
		}
		if exp.Toggle.Name != wantToggle || exp.Repeat != i%3 {
			t.Errorf("experiment %d: toggle=%s repeat=%d", i, exp.Toggle.Name, exp.Repeat)
		}
		if !reflect.DeepEqual(exp.Seeds, wantSeeds[i]) {
			t.Errorf("experiment %d: seeds=%v want %v", i, exp.Seeds, wantSeeds[i])
		}
		for _, task := range exp.Tasks {
			if task.Guided != exp.Toggle.Guided {
				t.Errorf("experiment %d: task guided=%v", i, task.Guided)
			}
			if task.Parallel != 2 {
				t.Errorf("experiment %d: task parallel=%d", i, task.Parallel)
			}
		}
	}
	if !reflect.DeepEqual(exps, g.Expand(2)) {
		t.Error("Expand is not deterministic")
	}
}

func TestExpandDefaults(t *testing.T) {
	g := Grid{
		Name:       "g",
		Targets:    []string{"all"},
		Strategies: []string{"all"},
		Seeds:      []int64{7},
		Toggles:    []Toggle{{Name: "base"}},
	}
	exps := g.Expand(1)
	if len(exps) != 1 {
		t.Fatalf("default repeats: got %d experiments, want 1", len(exps))
	}
	// "all" expands the full matrix: one per-seed task per cell.
	wantTasks := len(AllTargetNames()) * len(AllStrategyNames)
	if len(exps[0].Tasks) != wantTasks {
		t.Errorf("got %d tasks, want %d", len(exps[0].Tasks), wantTasks)
	}
	// Default stride is 1000.
	g.Repeats = 2
	exps = g.Expand(1)
	if got := exps[1].Seeds[0]; got != 1007 {
		t.Errorf("default stride: repeat-1 seed = %d, want 1007", got)
	}
}

// TestExpandTargetNames: a grid's target list expands through the same
// resolver as -targets, so "all" and "scale" become the names every
// worker resolves, and a plain list stays as written.
func TestExpandTargetNames(t *testing.T) {
	cases := []struct {
		targets []string
		want    []string
	}{
		{[]string{"all"}, AllTargetNames()},
		{[]string{"scale"}, ScaleTargetNames()},
		{[]string{"cass-op-400", "k8s-56261"}, []string{"cass-op-400", "k8s-56261"}},
	}
	for _, tc := range cases {
		g := Grid{
			Name: "g", Targets: tc.targets, Strategies: []string{"partial-history"},
			Seeds: []int64{1}, Toggles: []Toggle{{Name: "base"}},
		}
		var got []string
		for _, task := range g.Expand(1)[0].Tasks {
			if _, err := ResolveTarget(task.Target, false); err != nil {
				t.Errorf("%v: task target does not resolve: %v", tc.targets, err)
			}
			got = append(got, task.Target)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: task targets %v, want %v", tc.targets, got, tc.want)
		}
	}
}
