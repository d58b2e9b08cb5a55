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
func AllTargetNames() []string {
	all := workload.AllTargets()
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = t.Name
	}
	return out
}

// ScaleTargetNames returns the names of the canonical scale targets.
// They are not part of AllTargetNames (and so not of "all"): the
// committed evaluation artifacts pin the five-target matrix. They
// resolve by name, or all at once via the "scale" spec.
func ScaleTargetNames() []string {
	all := workload.ScaleTargets()
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = t.Name
	}
	return out
}

// ResolveTargets parses a comma-separated target list ("all" for every
// matrix target, "scale" for the cluster-scale targets); fixed swaps in
// the fixed component variants (the no-detection correctness baseline).
func ResolveTargets(spec string, fixed bool) ([]core.Target, error) {
	var names []string
	if spec == "all" {
		names = AllTargetNames()
	} else if spec == "scale" {
		names = ScaleTargetNames()
	} else {
		for _, name := range strings.Split(spec, ",") {
			names = append(names, strings.TrimSpace(name))
		}
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

// ResolveTarget resolves one target by name, searching the matrix
// targets and then the scale targets.
func ResolveTarget(name string, fixed bool) (core.Target, error) {
	for _, t := range workload.AllTargets() {
		if t.Name == name {
			if fixed {
				return workload.Fixed(t), nil
			}
			return t, nil
		}
	}
	for _, t := range workload.ScaleTargets() {
		if t.Name == name {
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
	names := AllStrategyNames
	if spec != "all" {
		names = nil
		for _, name := range strings.Split(spec, ",") {
			names = append(names, strings.TrimSpace(name))
		}
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

// FlagRules carries the engine-mode switches whose combinations the CLIs
// must agree on rejecting. Both phtest and phfarm (and the grid loader,
// for its per-toggle switches) route through ValidateFlags, so an inert
// or contradictory combination is rejected identically everywhere —
// a flag set that validated for a single-process run cannot behave
// differently when handed to the farm.
type FlagRules struct {
	Prune    bool
	Ranked   bool
	Explain  bool
	Snapshot bool
	Fixed    bool
	Guided   bool
	Explore  bool // phtest's exhaustive mode; always false in the farm
}

// ValidateFlags fails fast on flag combinations that parse fine but make
// no sense together. Each rejected combination used to be accepted and
// silently misbehave: -ranked without -prune ran the learning phase in a
// mode no report distinguishes from plain ordering, and -snapshot with
// -fixed would fork the fixed-variant baselines whose entire point is
// exercising the unmodified full-replay path.
func ValidateFlags(r FlagRules) error {
	if r.Ranked && !r.Prune {
		return fmt.Errorf("-ranked requires -prune: impact ranking orders the learning phase's kept set, which only exists when pruning runs")
	}
	if r.Snapshot && r.Fixed {
		return fmt.Errorf("-snapshot is incompatible with -fixed: fixed-variant runs are correctness baselines and must execute full replays")
	}
	if r.Explore {
		// Exhaustive mode is its own engine: the campaign scheduling and
		// reporting switches have no effect there, and accepting them
		// would silently run something other than what was asked for.
		// (-fixed IS allowed: certifying a fixed variant is the healthy
		// baseline the certificate exists for.)
		switch {
		case r.Guided:
			return fmt.Errorf("-explore is incompatible with -guided: exhaustive mode enumerates the schedule space, there is nothing for coverage guidance to schedule")
		case r.Prune:
			return fmt.Errorf("-explore is incompatible with -prune: exhaustive mode applies the learned model as partial-order reduction internally (-explore-por)")
		case r.Snapshot:
			return fmt.Errorf("-explore is incompatible with -snapshot: exhaustive mode manages its own checkpoint-tree forking")
		case r.Explain:
			return fmt.Errorf("-explore is incompatible with -explain: witnesses are always minimized and explained")
		}
	}
	return nil
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
