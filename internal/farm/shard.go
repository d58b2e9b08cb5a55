package farm

import "repro/internal/campaign"

// Cell identifies one (target, strategy) campaign — one entry of the
// matrix, one artifact in campaign.json.
type Cell struct {
	Target   string
	Strategy string
}

// Cells expands a campaign matrix into one spec per (target, strategy)
// cell, target-major: base with its coordinates filled in.
func Cells(targets, strategies []string, base TaskSpec) []TaskSpec {
	out := make([]TaskSpec, 0, len(targets)*len(strategies))
	for _, t := range targets {
		for _, s := range strategies {
			cell := base
			cell.Target, cell.Strategy = t, s
			out = append(out, cell)
		}
	}
	return out
}

// Plan expands a campaign matrix into farm tasks: Shard of its Cells.
func Plan(targets, strategies []string, base TaskSpec) []TaskSpec {
	return Shard(Cells(targets, strategies, base))
}

// Shard cuts cells into farm tasks. Each cell carries the full seed
// sweep; Shard fills in ID and the per-task seed slice. Tasks come out
// cell-major (cells in order, then seed) with dense IDs, so grouping
// completed tasks by first appearance reproduces the matrix order.
//
// The shard boundary follows the engine's independence structure:
//
//   - Without learning, seeds are fully independent — the engine runs
//     each seed's reference, planning, and execution in isolation and
//     joins their parts through campaign.Merge, the function Collate
//     folds the shards through. Such cells shard to one task per seed.
//   - With learning (Prune/Ranked), seed N's schedule consults the
//     bucket-class affinity of seeds < N (Merge's fold law excludes
//     exactly this case), so seed sharding would change the schedules.
//     Those cells stay whole: one task carrying the full sweep.
func Shard(cells []TaskSpec) []TaskSpec {
	var out []TaskSpec
	for _, cell := range cells {
		seeds := cell.Seeds
		if len(seeds) == 0 {
			seeds = []int64{1} // the engine's historical default sweep
		}
		if cell.Prune || cell.Ranked {
			cell.ID, cell.Seeds = len(out), seeds
			out = append(out, cell)
			continue
		}
		for _, seed := range seeds {
			task := cell
			task.ID, task.Seeds = len(out), []int64{seed}
			out = append(out, task)
		}
	}
	return out
}

// Collate groups task results by cell in task (= matrix) order and
// folds every cell whose tasks all settled through campaign.Merge, the
// engine's own sweep aggregation. Cells with a missing or
// failed task — a cancelled run's tail — are returned separately so the
// caller can report them; their completed shards are discarded rather
// than presented as a valid (but silently truncated) campaign.
//
// A quarantined task (Res nil, Quarantine set) is settled, not missing:
// it merges as the synthetic failed cell QuarantineResult builds, so a
// poison task costs its own seeds' results and nothing else. Supervision
// history on the cell's tasks (deaths, retries, quarantines) lands in
// the merged result's Stats.Fleet — counters canonicalization scrubs,
// so a chaos run's canonical artifact still matches a failure-free one.
func Collate(results []TaskResult) (merged []campaign.Result, incomplete []Cell) {
	order := []Cell{}
	parts := map[Cell][]TaskResult{}
	for _, tr := range results {
		c := Cell{Target: tr.Spec.Target, Strategy: tr.Spec.Strategy}
		if _, seen := parts[c]; !seen {
			order = append(order, c)
		}
		parts[c] = append(parts[c], tr)
	}
	for _, c := range order {
		rs := make([]campaign.Result, 0, len(parts[c]))
		var fleet campaign.FleetStats
		ok := true
		for _, tr := range parts[c] {
			fleet.WorkerDeaths += len(tr.Deaths)
			if tr.Retries > 0 {
				fleet.TasksRetried++
			}
			switch {
			case tr.Res != nil:
				rs = append(rs, *tr.Res)
			case tr.Quarantine != nil:
				fleet.TasksQuarantined++
				rs = append(rs, QuarantineResult(tr.Spec, tr.Quarantine))
			default:
				ok = false
			}
		}
		if !ok {
			incomplete = append(incomplete, c)
			continue
		}
		var m campaign.Result
		for _, r := range rs {
			m = campaign.Merge(m, r)
		}
		if !fleet.Zero() {
			m.Stats.Fleet = &fleet
		}
		merged = append(merged, m)
	}
	return merged, incomplete
}
