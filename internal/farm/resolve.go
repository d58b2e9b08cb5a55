package farm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/workload"
)

// Name resolution shared by the single-process CLI (phtest) and the
// farm (coordinator validation up front, workers again at execution
// time). Keeping one resolver means a task that validated on the
// coordinator cannot fail to resolve on a worker.

// AllStrategyNames is the canonical strategy order — the matrix column
// order every report uses.
var AllStrategyNames = []string{"partial-history", "crashtuner", "cofi", "random"}

// AllTargetNames returns the target names in canonical (matrix row)
// order.
func AllTargetNames() []string { return nameList(workload.AllTargets()) }

// ScaleTargetNames returns the names of the canonical scale targets.
// They are not part of AllTargetNames (and so not of "all"): the
// committed evaluation artifacts pin the five-target matrix. They
// resolve by name, or all at once via the "scale" spec.
func ScaleTargetNames() []string { return nameList(workload.ScaleTargets()) }

// nameList lists the targets' names, in order.
func nameList(targets []core.Target) []string {
	out := make([]string, len(targets))
	for i, t := range targets {
		out[i] = t.Name
	}
	return out
}

// ResolveTargets parses a comma-separated target list ("all" for every
// matrix target, "scale" for the cluster-scale targets); fixed swaps in
// the fixed component variants (the no-detection correctness baseline).
func ResolveTargets(spec string, fixed bool) ([]core.Target, error) {
	names, err := targetNames(spec)
	if err != nil {
		return nil, err
	}
	out := make([]core.Target, 0, len(names))
	for _, name := range names {
		t, err := ResolveTarget(name, fixed)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// targetNames expands a target list into names, unresolved: what
// ResolveTargets resolves and what a grid's tasks carry.
func targetNames(spec string) ([]string, error) {
	switch spec {
	case "all":
		return AllTargetNames(), nil
	case "scale":
		return ScaleTargetNames(), nil
	}
	return splitNames(spec, "target")
}

// ResolveTarget resolves one target by name, searching the matrix
// targets and then the scale targets.
func ResolveTarget(name string, fixed bool) (core.Target, error) {
	for _, targets := range []func() []core.Target{workload.AllTargets, workload.ScaleTargets} {
		for _, t := range targets() {
			if t.Name != name {
				continue
			}
			if fixed {
				return workload.Fixed(t), nil
			}
			return t, nil
		}
	}
	have := append(AllTargetNames(), ScaleTargetNames()...)
	return core.Target{}, fmt.Errorf("unknown target %q (have: %s)", name, strings.Join(have, ", "))
}

// ResolveStrategies parses a comma-separated strategy list ("all" for
// the canonical four). randomSeed/randomN parameterize the random
// baseline's plan generator.
func ResolveStrategies(spec string, randomSeed int64, randomN int) ([]core.Strategy, error) {
	names, err := strategyNames(spec)
	if err != nil {
		return nil, err
	}
	out := make([]core.Strategy, 0, len(names))
	for _, name := range names {
		s, err := ResolveStrategy(name, randomSeed, randomN)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// strategyNames expands a strategy list into names, unresolved.
func strategyNames(spec string) ([]string, error) {
	if spec == "all" {
		return AllStrategyNames, nil
	}
	return splitNames(spec, "strategy")
}

// splitNames splits a comma-separated list of distinct names: like a
// repeated seed, a repeated name would run one cell twice and report it
// as two.
func splitNames(spec, kind string) ([]string, error) {
	names := strings.Split(spec, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if slices.Contains(names[:i], names[i]) {
			return nil, fmt.Errorf("%s %q repeated in %q", kind, names[i], spec)
		}
	}
	return names, nil
}

// ResolveStrategy resolves one strategy by name.
func ResolveStrategy(name string, randomSeed int64, randomN int) (core.Strategy, error) {
	var s core.Strategy
	switch name {
	case "partial-history":
		s = core.NewPlanner()
	case "crashtuner":
		s = baselines.CrashTuner{}
	case "cofi":
		s = baselines.CoFI{}
	case "random":
		s = baselines.Random{Seed: randomSeed, N: randomN}
	default:
		return nil, fmt.Errorf("unknown strategy %q (have: %s)", name, strings.Join(AllStrategyNames, ", "))
	}
	return s, nil
}

// ParseSeeds parses a comma-separated list of distinct world seeds: a
// repeated seed would run one world twice and count it as two.
func ParseSeeds(spec string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("-seeds: seed %d repeated in %q", v, spec)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds: no seeds in %q", spec)
	}
	return out, nil
}
