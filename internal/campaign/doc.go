// Package campaign is the parallel, coverage-guided campaign execution
// engine on top of internal/core.
//
// A campaign is the paper's loop: record a reference run, let a strategy
// turn its trace into perturbation plans, execute the plans in order
// against fresh clusters until the target's oracle fires. Because every
// simulated execution is a pure function of (workload, topology, seed,
// plan) — the simulation itself is goroutine-free and deterministic —
// campaigns are embarrassingly parallel. The Engine is the one campaign
// loop in the repository, and exploits that:
//
//   - Worker pool. An Engine fans plan executions out across Workers
//     goroutines, each building its own fresh cluster. Plan indices are
//     dispatched in order and results land in per-index slots, so the
//     reported CampaignResult is byte-identical, at any worker count, to
//     what the loop above reports run one plan at a time
//     (TestParallelMatchesSerial keeps that loop as a test oracle). Once
//     a detection is known, no plan ordered after it is started (early
//     cancel): the serial stopping rule.
//
//   - Multi-seed sweeps as a fold. Config.Seeds runs the whole campaign
//     under several world seeds. Each seed records its own reference
//     trace and generates its own plans, so a seed-2 campaign is an
//     honest re-execution, not a replay of seed-1 coordinates. Each seed
//     yields one part; Merge (merge.go) joins parts in sweep order, and
//     is the only aggregation: internal/farm folds the shards its
//     workers return through the same function.
//
//   - Coverage-guided prioritization (Config.Guided). Each instrumented
//     execution yields a compact signature: the set of oracle violations
//     folded with a trace-derived state hash (the hashed sequence of
//     delivered event kinds per component — trace.StateHash). Plans are
//     grouped into predicted signature classes; classes that keep
//     producing already-seen signatures are deprioritized and classes
//     still yielding novel coverage are promoted, fuzzer-style.
//
//   - Failure dedup and reporting. Violating executions are bucketed by
//     signature, the engine keeps progress counters (raw executions,
//     executions/sec, coverage classes, novel signatures, detections),
//     and BuildArtifact/WriteArtifactsStatus emit a campaign.json with per-plan
//     outcomes for offline analysis and the bench trajectory.
//
//   - One execution path, forked when provable (Config.Snapshot). Every
//     execution — a sweep plan, a minimization probe, the explain pass's
//     instrumented re-execution, an explorer schedule (Forker) — goes
//     through one fork substrate, the checkpoint tree (tree.go): a base
//     plan is run once, snapshots (rungs) are captured at hinted
//     instants, and a candidate forks from the deepest rung its
//     divergence bound allows. The base is either plan-free (the
//     reference run: one tree per (target, seed) serves the whole sweep)
//     or a detected plan (mid-plan rungs serve that bucket's probes).
//     Whatever the divergence rule cannot bound, or a fork guard rejects
//     (strict_past, restore_error, watchdog — counted
//     per cause in Stats.SnapshotFallbacks), runs through the one full
//     replay, runGuarded (guard.go): Build → Apply → Workload → Run
//     under panic recovery and the event-budget watchdog. Records are
//     byte-identical either way.
//
// The sweet spot in the paper's terms (§6.1): a partial-history tool wins
// by exploring fewer, better-chosen perturbations — and by exploring the
// ones it does choose as fast as the hardware allows.
package campaign
