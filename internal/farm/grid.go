package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Toggle is one plan-family / engine-mode configuration of a grid — a
// named combination of the engine's feature switches. An experiment
// grid typically compares toggles ("baseline" vs "guided" vs
// "guided+prune") over the same targets and seeds.
type Toggle struct {
	Name     string `json:"name"`
	Guided   bool   `json:"guided,omitempty"`
	Prune    bool   `json:"prune,omitempty"`
	Ranked   bool   `json:"ranked,omitempty"`
	Snapshot bool   `json:"snapshot,omitempty"`
	Explain  bool   `json:"explain,omitempty"`
	// TaskDeadlineSec overrides the supervisor's per-task completion
	// deadline for every task of this toggle, in seconds (0 = inherit
	// the farm-wide -task-deadline, or the scaled default). A grid axis
	// for deadline experiments: slow toggles (full replay, big event
	// budgets) can buy wall clock without loosening the watchdog on the
	// fast ones.
	TaskDeadlineSec int `json:"task_deadline_sec,omitempty"`
}

// Grid is a declarative experiment specification: the full cross
// product targets × strategies × toggles × repeats, swept over Seeds.
// Repeat r shifts every seed by r*SeedStride, so repeats measure
// seed-sensitivity with non-overlapping worlds while staying fully
// deterministic — the same grid file always expands to the same
// experiments.
type Grid struct {
	Name       string   `json:"name"`
	Targets    []string `json:"targets"`    // target names, or ["all"]
	Strategies []string `json:"strategies"` // strategy names, or ["all"]
	Seeds      []int64  `json:"seeds"`
	// Repeats is how many seed-shifted repetitions to run (default 1).
	Repeats int `json:"repeats,omitempty"`
	// SeedStride is the per-repeat seed shift (default 1000).
	SeedStride    int64 `json:"seed_stride,omitempty"`
	MaxExecutions int   `json:"max_executions,omitempty"`
	RandomSeed    int64 `json:"random_seed,omitempty"`
	RandomN       int   `json:"random_n,omitempty"`
	// KeepGoing runs every plan even after detection (full bucket
	// census instead of executions-to-first-detection).
	KeepGoing bool     `json:"keep_going,omitempty"`
	Toggles   []Toggle `json:"toggles"`
}

// Experiment is one expanded grid point: a (toggle, repeat) pair with
// its shifted seed sweep and the farm tasks that execute it. Task IDs
// are local to the experiment; the caller renumbers when flattening
// several experiments into one coordinator run.
type Experiment struct {
	Toggle Toggle
	Repeat int
	Seeds  []int64
	Tasks  []TaskSpec
}

// LoadGrid reads and validates a grid file.
func LoadGrid(path string) (Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Grid{}, fmt.Errorf("grid: read %s: %w", path, err)
	}
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return Grid{}, fmt.Errorf("grid: parse %s: %w", path, err)
	}
	if err := g.validate(); err != nil {
		return Grid{}, fmt.Errorf("grid %s: %w", path, err)
	}
	return g, nil
}

func (g *Grid) validate() error {
	if g.Name == "" {
		return fmt.Errorf("missing name")
	}
	if len(g.Targets) == 0 || len(g.Strategies) == 0 {
		return fmt.Errorf("targets and strategies must be non-empty")
	}
	if len(g.Seeds) == 0 {
		return fmt.Errorf("seeds must be non-empty")
	}
	for i, s := range g.Seeds {
		if slices.Contains(g.Seeds[:i], s) {
			return fmt.Errorf("seed %d repeated", s)
		}
	}
	if len(g.Toggles) == 0 {
		return fmt.Errorf("toggles must be non-empty")
	}
	names := map[string]bool{}
	for _, t := range g.Toggles {
		if t.Name == "" {
			return fmt.Errorf("every toggle needs a name")
		}
		if names[t.Name] {
			return fmt.Errorf("duplicate toggle %q", t.Name)
		}
		names[t.Name] = true
		if err := ValidateFlags(FlagRules{
			Prune: t.Prune, Ranked: t.Ranked,
			Explain: t.Explain, Snapshot: t.Snapshot,
		}); err != nil {
			return fmt.Errorf("toggle %q: %w", t.Name, err)
		}
		if t.TaskDeadlineSec < 0 {
			return fmt.Errorf("toggle %q: task_deadline_sec must be >= 0", t.Name)
		}
	}
	if g.Repeats < 0 {
		return fmt.Errorf("repeats must be >= 0")
	}
	return nil
}

// targetNames resolves the grid's target list, expanding "all".
func (g Grid) targetNames() []string {
	if len(g.Targets) == 1 && g.Targets[0] == "all" {
		return AllTargetNames()
	}
	return g.Targets
}

// strategyNames resolves the grid's strategy list, expanding "all".
func (g Grid) strategyNames() []string {
	if len(g.Strategies) == 1 && g.Strategies[0] == "all" {
		return AllStrategyNames
	}
	return g.Strategies
}

// Expand turns the grid into its experiments, in deterministic order:
// toggle-major, then repeat. parallel is the per-worker in-process pool
// width every task runs with.
func (g Grid) Expand(parallel int) []Experiment {
	repeats := g.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	stride := g.SeedStride
	if stride == 0 {
		stride = 1000
	}
	targets, strategies := g.targetNames(), g.strategyNames()
	var out []Experiment
	for _, tog := range g.Toggles {
		for r := 0; r < repeats; r++ {
			seeds := make([]int64, len(g.Seeds))
			for i, s := range g.Seeds {
				seeds[i] = s + int64(r)*stride
			}
			base := TaskSpec{
				Seeds:           seeds,
				MaxExecutions:   g.MaxExecutions,
				Parallel:        parallel,
				TaskDeadlineSec: tog.TaskDeadlineSec,
				Guided:          tog.Guided,
				Prune:           tog.Prune,
				Ranked:          tog.Ranked,
				Snapshot:        tog.Snapshot,
				Explain:         tog.Explain,
				KeepGoing:       g.KeepGoing,
				RandomSeed:      g.RandomSeed,
				RandomN:         g.RandomN,
			}
			out = append(out, Experiment{
				Toggle: tog,
				Repeat: r,
				Seeds:  seeds,
				Tasks:  Plan(targets, strategies, base),
			})
		}
	}
	return out
}
