package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
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
		if err := g.spec(t).Validate(); err != nil {
			return fmt.Errorf("toggle %q: %w", t.Name, err)
		}
	}
	if g.Repeats < 0 {
		return fmt.Errorf("repeats must be >= 0")
	}
	// Resolve every name once, so a bad one fails before anything runs.
	if _, err := ResolveTargets(strings.Join(g.Targets, ","), false); err != nil {
		return err
	}
	_, err := ResolveStrategies(strings.Join(g.Strategies, ","), g.RandomSeed, g.RandomN)
	return err
}

// spec is the cell spec a toggle's tasks share, before the seed sweep
// and the pool width are filled in.
func (g Grid) spec(tog Toggle) TaskSpec {
	return TaskSpec{
		MaxExecutions: g.MaxExecutions,
		Guided:        tog.Guided,
		Prune:         tog.Prune,
		Ranked:        tog.Ranked,
		Snapshot:      tog.Snapshot,
		Explain:       tog.Explain,
		KeepGoing:     g.KeepGoing,
		RandomSeed:    g.RandomSeed,
		RandomN:       g.RandomN,
	}
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
	// validate resolved both lists, so neither has a repeated name.
	targets, _ := targetNames(strings.Join(g.Targets, ","))
	strategies, _ := strategyNames(strings.Join(g.Strategies, ","))
	var out []Experiment
	for _, tog := range g.Toggles {
		for r := 0; r < repeats; r++ {
			seeds := make([]int64, len(g.Seeds))
			for i, s := range g.Seeds {
				seeds[i] = s + int64(r)*stride
			}
			base := g.spec(tog)
			base.Seeds, base.Parallel = seeds, parallel
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
