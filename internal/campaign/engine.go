package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// Config selects how an Engine executes campaigns.
type Config struct {
	// Workers is the number of pool goroutines executing plans
	// (0 = GOMAXPROCS). Each worker builds its own fresh cluster per
	// execution; the simulation itself stays goroutine-free.
	Workers int
	// Seeds are the world seeds to sweep; empty means {1}, the historical
	// default. Every seed records its own reference trace and generates
	// its own plans.
	Seeds []int64
	// MaxExecutions bounds plan executions per seed (0 = unlimited). The
	// reference run does not count against the bound but does count in
	// the reported Executions.
	MaxExecutions int
	// Guided enables coverage-guided plan scheduling: executions are
	// instrumented with trace recorders, signatures feed back into a
	// scheduler that starves predicted-signature classes whose coverage
	// is saturated. Guided scheduling is batch-synchronous: plans are
	// dispatched in deterministic rounds of Workers, so a guided campaign
	// is reproducible run-to-run at a fixed worker count (the schedule —
	// and therefore executions-to-detection — may differ between worker
	// counts, because feedback arrives at batch granularity). Unguided
	// campaigns report what a serial loop over the plans would, at any
	// worker count.
	Guided bool
	// Collect retains per-plan outcomes (for the campaign.json artifact)
	// and forces instrumentation even when Guided is off.
	Collect bool
	// KeepGoing disables early cancellation: the campaign executes every
	// plan (up to MaxExecutions) even after the target bug is detected,
	// so the failure buckets see every violating execution. The reported
	// CampaignResult still uses first-detection accounting.
	KeepGoing bool
	// Explain post-processes every detected failure bucket: the bucket's
	// example plan is minimized under its own seed (core.MinimizeSeedRun,
	// plus NarrowWindowSeedRun for staleness windows), re-executed once with
	// instrumentation, and turned into a causal explanation
	// (internal/explain) — the chain suppressed observation → divergent
	// view → action → oracle violation, with divergence metrics. Implies
	// instrumentation.
	Explain bool
	// EventBudget is the per-execution kernel step budget the livelock
	// watchdog enforces (0 = DefaultEventBudget). Executions that exhaust
	// the budget before reaching the virtual-time horizon are flagged Hung
	// instead of spinning the worker forever.
	EventBudget uint64
	// Prune enables the trace-learning phase (internal/learn): per seed,
	// the reference trace is mined for read-dependency profiles, plans
	// whose perturbation provably cannot intersect any consumed delivery
	// are deferred, and survivors are deduplicated into equivalence
	// classes by projected observable effect. Deferral, not deletion: the
	// deferred tail still executes when the kept set detects nothing (or
	// under KeepGoing), so a pruned campaign can never detect less than an
	// unpruned one — only later, and tail detections are surfaced as
	// Stats.PruningUnsoundDetections.
	Prune bool
	// Ranked orders the kept set by the learned impact score (consumed
	// surface density, CAS/txn proximity, deletion adjacency, past-bucket
	// class affinity) instead of raw planner order.
	Ranked bool
	// Snapshot enables copy-on-write prefix checkpointing (tree.go): per
	// (target, seed), one extra plan-free run captures cluster snapshots at
	// mined freeze points, and each plan execution forks from the latest
	// checkpoint preceding the plan's earliest effect instead of
	// re-simulating the prefix from t=0; with Explain, each bucket's
	// minimization probes fork from a tree rooted at its example plan. Any
	// execution whose fork cannot be proven byte-equivalent to a full
	// replay (unknown plan type, strict-past violation, restore error,
	// panic, watchdog trip) falls back to the full-replay path, so every
	// artifact — buckets, outcomes, telemetry records — is byte-identical
	// to the same campaign with Snapshot off.
	Snapshot bool
	// Coverage seeds the campaign from a persistent cross-campaign corpus
	// (see CoverageSeed): previously-detected buckets' example plans run
	// first as an always-complete regression block, plans whose recorded
	// execution was healthy and non-violating are skipped outright, and
	// guided scheduling treats recorded signatures as already-seen. nil
	// means no corpus — the historical cold-start behavior.
	Coverage *CoverageSeed
	// OnOutcome, when non-nil, is called for every execution record as it
	// enters the deterministic execution set (reference runs included), in
	// aggregation order — the farm worker's per-execution streaming hook.
	// Called from the engine's aggregation loop, never concurrently.
	// Implies Collect-style instrumentation costs only if Collect is also
	// set; the hook itself fires regardless of Collect.
	OnOutcome func(PlanOutcome)
}

func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) seedList() []int64 {
	if len(c.Seeds) == 0 {
		return []int64{1}
	}
	return c.Seeds
}

func (c Config) instrumented() bool { return c.Guided || c.Collect || c.Explain }

func (c Config) learning() bool { return c.Prune || c.Ranked }

// Engine executes campaigns per its Config. The zero-value-free
// constructor is New; an Engine is safe for sequential reuse across
// campaigns (each Run builds fresh pool state).
type Engine struct {
	cfg Config
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// SeedResult is one seed's campaign outcome.
type SeedResult struct {
	Seed     int64               `json:"seed"`
	Campaign core.CampaignResult `json:"campaign"`
	// RefHash is the reference trace's state hash (hex) — the fingerprint
	// of the unperturbed world this seed's plans were mined from. The
	// cross-campaign corpus keys its validity guard on it: corpus entries
	// recorded under a different reference hash are ignored.
	RefHash string `json:"ref_hash,omitempty"`
}

// Result is the full outcome of one (target, strategy) campaign across
// all configured seeds.
type Result struct {
	Target   string
	Strategy string
	// Campaign is the sweep-level headline result: the first detecting
	// seed's campaign (in Config.Seeds order) with Executions accumulated
	// across the preceding non-detecting seeds — the honest
	// executions-to-first-repro of the whole sweep. When no seed detects
	// it is the first seed's result with Executions summed across every
	// seed. For a single-seed unguided engine it is what a serial loop
	// over the strategy's plans reports (engine_test.go keeps that loop
	// as its oracle).
	Campaign core.CampaignResult
	// Detected reports whether any seed detected the target bug.
	Detected bool
	// DetectedSeed is the world seed of the first detection in sweep
	// order (meaningful only when Detected is true).
	DetectedSeed int64
	// Seeds holds every seed's campaign result, in Config.Seeds order.
	Seeds []SeedResult
	// Stats carries the progress counters (raw executions, wall clock,
	// executions/sec, coverage classes, detections).
	Stats Stats
	// Buckets are the violating executions deduplicated by signature, in
	// sorted-signature order (instrumented runs only). With
	// Config.Explain, detected buckets additionally carry a seed-correct
	// minimal plan and a causal explanation.
	Buckets []FailureBucket
	// Outcomes are the per-plan execution records (Config.Collect only).
	Outcomes []PlanOutcome
	// Failures lists every panicked (worker guard) or livelocked
	// (event-budget watchdog) execution, in deterministic order.
	Failures []ExecutionFailure
	// Learn holds each seed's learning-phase report (Config.Prune /
	// Config.Ranked only), in sweep order: profile summaries plus every
	// prune/dedupe decision.
	Learn []SeedLearn
	// cov is Merge's carry for the distinct-coverage counts in Stats (see
	// coverage). nil for uninstrumented runs and for parts that crossed a
	// process boundary; Canonicalize drops it.
	cov *coverage
}

// planRef is one plan in execution order, carrying its original index in
// the strategy's plan list (the coordinate all reports use). Without
// learning the two coincide; with learning the execution order is
// kept-then-deferred and possibly impact-ranked.
type planRef struct {
	plan  core.Plan
	index int
}

// slot is one dispatched execution's record, indexed by dispatch order.
type slot struct {
	ran       bool
	planIndex int // original index in the strategy's plan order
	plan      core.Plan
	exec      core.Execution
	sig       Signature
	wall      time.Duration
	fallback  fallbackCause // why a fork fell back to full replay, if it did
}

// Run executes one campaign as a fold: every seed — a reference run, plan
// generation, and a pooled execution of the plans — yields one part, and
// Merge joins the parts in sweep order. Then, with Config.Explain, one
// minimization + explanation pass runs over the merged failure buckets.
func (e *Engine) Run(t core.Target, s core.Strategy) Result {
	start := time.Now()
	var res Result
	refs := make(map[int64]*trace.Trace, len(e.cfg.seedList()))
	for _, seed := range e.cfg.seedList() {
		part, ref := e.runSeed(t, s, seed, res.affinity())
		refs[seed] = ref
		res = Merge(res, part)
	}
	if e.cfg.Explain {
		e.explainBuckets(t, &res, refs)
	}
	res.Stats.WallNanos = time.Since(start).Nanoseconds()
	res.derive()
	return res
}

// PrimaryCampaign aggregates the per-seed results into the sweep-level
// headline: the first detecting seed's campaign in sweep order (its
// Executions incremented by every execution the preceding non-detecting
// seeds spent), else the first seed's campaign with the sweep's total
// executions. This is the fix for detections that only occur under a
// later seed: they used to be invisible in the printed E5 matrix because
// the primary result was unconditionally Seeds[0]. No seeds (the zero
// Result) have the zero headline.
func PrimaryCampaign(seeds []SeedResult) (core.CampaignResult, int64) {
	if len(seeds) == 0 {
		return core.CampaignResult{}, 0
	}
	spent := 0
	for _, sr := range seeds {
		if sr.Campaign.Detected {
			cr := sr.Campaign
			cr.Executions += spent
			return cr, sr.Seed
		}
		spent += sr.Campaign.Executions
	}
	cr := seeds[0].Campaign
	cr.Executions = spent
	return cr, 0
}

// Matrix runs every (target, strategy) pair in row-major order — the
// Section 7 headline table.
func (e *Engine) Matrix(targets []core.Target, strategies []core.Strategy) []Result {
	out := make([]Result, 0, len(targets)*len(strategies))
	for _, t := range targets {
		for _, s := range strategies {
			out = append(out, e.Run(t, s))
		}
	}
	return out
}

// runSeed runs one seed's campaign and returns its part of the sweep plus
// the seed's reference trace. affinity is all it sees of the seeds before
// it: the detected-bucket class counts the learning ranker boosts.
func (e *Engine) runSeed(t core.Target, s core.Strategy, seed int64, affinity map[string]int) (Result, *trace.Trace) {
	cr := core.CampaignResult{Target: t.Name, Strategy: s.Name()}
	agg := newAggregator(e.cfg, t, s, seed)

	// Reference run: the planning substrate, and a real execution.
	refStart := time.Now()
	ref, refViolations := core.ReferenceSeed(t, seed)
	refHash := fmt.Sprintf("%016x", ref.StateHash())
	refSlot := slot{
		ran:       true,
		planIndex: -1,
		plan:      core.NopPlan{},
		exec: core.Execution{
			Plan:       core.NopPlan{},
			Seed:       seed,
			Violations: refViolations,
			Detected:   violates(refViolations, t.Bug),
		},
		wall: time.Since(refStart),
	}
	if e.cfg.instrumented() {
		refSlot.sig = signatureOf(ref, refViolations)
	}
	agg.noteRaw()
	agg.add(refSlot)

	if refSlot.exec.Detected {
		// The bug manifests without perturbation: detection at execution 1.
		cr.PlansTotal = 1
		cr.Executions = 1
		cr.Detected = true
		cr.DetectingPlan = core.NopPlan{}.Describe()
		if fv := firstViolation(refViolations, t.Bug); fv != nil {
			cr.FirstViolation = fv
		}
		return agg.result(SeedResult{Seed: seed, Campaign: cr, RefHash: refHash}), ref
	}

	plans := s.Plans(t, ref)
	cr.PlansTotal = len(plans)
	cr.Executions = 1 // the reference run

	// Execution order: identity without learning; kept-then-deferred
	// (optionally impact-ranked) with it. Original strategy indices ride
	// along in planRefs so every report keeps its coordinates.
	refs := make([]planRef, len(plans))
	for i, p := range plans {
		refs[i] = planRef{plan: p, index: i}
	}
	keptLen := len(refs)
	if e.cfg.learning() {
		model := learn.Mine(ref, 0)
		sched := learn.BuildSchedule(model, t, plans, learn.Options{
			Prune:    e.cfg.Prune,
			Rank:     e.cfg.Ranked,
			Affinity: affinity,
		})
		refs = refs[:0]
		for _, sp := range sched.Kept {
			refs = append(refs, planRef{plan: sp.Plan, index: sp.Index})
		}
		keptLen = len(refs)
		for _, sp := range sched.Deferred {
			refs = append(refs, planRef{plan: sp.Plan, index: sp.Index})
		}
		agg.noteLearn(seed, model, sched)
	}

	// Cross-campaign corpus pass (Config.Coverage): previously-recorded
	// bucket examples become an always-complete regression block at the
	// very front, and plans whose recorded execution was healthy and
	// non-violating are skipped outright — both guarded per seed by the
	// reference state hash, so a changed world falls back to a cold run.
	var regRefs []planRef
	var preSeen []Signature
	if cs := e.cfg.Coverage; cs != nil {
		sched := applyCorpus(cs, seed, refHash, refs, keptLen)
		regRefs, refs, keptLen = sched.regression, sched.rest, sched.keptLen
		agg.noteCorpus(len(regRefs), sched.skipped, sched.invalidated)
		if sched.valid {
			preSeen = parseSignatures(cs.KnownSignatures)
		}
	}

	// Fork substrate: one checkpoint tree over the plan-free base per
	// (target, seed), shared read-only by all workers, built once the
	// execution order is fixed. nil (snapshotting off, or no capturable
	// checkpoint) means every plan runs as a full replay.
	pt := e.sweepTree(t, seed, ref, regRefs, refs)

	run := func(plans []planRef, maxExec int) ([]slot, int) {
		if e.cfg.Guided {
			return e.runGuided(t, plans, seed, maxExec, pt, preSeen)
		}
		return e.runOrdered(t, plans, seed, maxExec, pt, false)
	}

	// Regression block: corpus bucket examples, in corpus order, always
	// run to completion (no early cancel) so every known bucket signature
	// is re-confirmed even when the first regression plan already detects.
	var slots []slot
	detect := -1
	regSlots := 0
	if len(regRefs) > 0 {
		regSlotsRun, regDetect := e.runOrdered(t, regRefs, seed, e.cfg.MaxExecutions, pt, true)
		slots = regSlotsRun
		regSlots = len(regSlotsRun)
		detect = regDetect
	}
	mainBudget := 0
	if m := e.cfg.MaxExecutions; m > 0 {
		mainBudget = m - regSlots
	}
	if (detect < 0 || e.cfg.KeepGoing) && (e.cfg.MaxExecutions == 0 || mainBudget > 0) {
		mainSlots, mainDetect := run(refs[:keptLen], mainBudget)
		if mainDetect >= 0 && detect < 0 {
			detect = regSlots + mainDetect
		}
		slots = append(slots, mainSlots...)
	}
	keptSlots := len(slots)
	keptDetected := detect >= 0
	if tail := refs[keptLen:]; len(tail) > 0 && (detect < 0 || e.cfg.KeepGoing) {
		// Deferred tail: the soundness net behind pruning. It runs when the
		// kept set found nothing (pruning must never *hide* a detection,
		// only postpone the plans that could make one) or under KeepGoing
		// (so bucket sets stay identical to the unpruned campaign's).
		remaining := 0
		if m := e.cfg.MaxExecutions; m > 0 {
			remaining = m - keptSlots
		}
		if e.cfg.MaxExecutions == 0 || remaining > 0 {
			tailSlots, tailDetect := run(tail, remaining)
			if tailDetect >= 0 && detect < 0 {
				detect = keptSlots + tailDetect
			}
			slots = append(slots, tailSlots...)
		}
	}
	for i, sl := range slots {
		if !sl.ran {
			continue
		}
		agg.noteRaw()
		// Aggregate only the deterministic execution set: with early
		// cancel, workers may have raced a few executions past the
		// detecting index before noticing; those count as raw work but
		// must not perturb buckets/outcomes, or the artifact would vary
		// with the worker count. For unguided runs the deterministic set
		// is exactly the serial-equivalent prefix; guided runs aggregate
		// every execution of their (deterministic per worker count)
		// schedule. The regression block (i < regSlots) always belongs to
		// the deterministic set — it runs to completion by construction.
		if !e.cfg.Guided && !e.cfg.KeepGoing && detect >= 0 && i > detect && i >= regSlots {
			continue
		}
		if i >= keptSlots {
			// A deferred (pruned or deduped) plan executed. A detection
			// here while the kept set found nothing means a pruning
			// decision was unsound — surfaced, never swallowed.
			agg.notePrunedExecution(sl.exec.Detected && !keptDetected)
		}
		agg.add(sl)
	}

	if detect >= 0 {
		cr.Detected = true
		cr.Executions = 1 + detect + 1
		cr.DetectingPlan = slots[detect].plan.Describe()
		if fv := firstViolation(slots[detect].exec.Violations, t.Bug); fv != nil {
			cr.FirstViolation = fv
		}
	} else {
		ran := 0
		for _, sl := range slots {
			if sl.ran {
				ran++
			}
		}
		cr.Executions = 1 + ran
	}
	return agg.result(SeedResult{Seed: seed, Campaign: cr, RefHash: refHash}), ref
}

// sweepTree builds a seed's plan-free checkpoint tree (nil with
// snapshotting off) for an execution order — blocks run one after the
// other — with rungs hinted at the earliest effects of the plans the
// campaign can reach: the first MaxExecutions, or all of them when the
// budget is unbounded or the campaign is guided (the coverage scheduler
// may pick any plan of a block).
func (e *Engine) sweepTree(t core.Target, seed int64, ref *trace.Trace, order ...[]planRef) *planTree {
	if !e.cfg.Snapshot {
		return nil
	}
	budget := e.cfg.MaxExecutions
	if e.cfg.Guided {
		budget = 0
	}
	var reachable []core.Plan
	for _, block := range order {
		for _, r := range block {
			if budget > 0 && len(reachable) == budget {
				break
			}
			reachable = append(reachable, r.plan)
		}
	}
	return buildPlanTree(t, core.NopPlan{}, seed, ref, effectTimes(reachable, ref))
}

// parseSignatures decodes the corpus's hex signature list; malformed
// entries are dropped (an unreadable corpus line must not kill a run).
func parseSignatures(hexes []string) []Signature {
	out := make([]Signature, 0, len(hexes))
	for _, h := range hexes {
		var v uint64
		if _, err := fmt.Sscanf(h, "%x", &v); err == nil {
			out = append(out, Signature(v))
		}
	}
	return out
}

// explainBuckets post-processes every detected failure bucket of the
// merged sweep: minimize the example plan under the seed it was found
// with, re-execute the minimal plan once instrumented, and derive the
// causal explanation against that seed's reference trace. Buckets are
// visited in signature order, so the pass — like everything derived from
// the deterministic execution set — is reproducible.
func (e *Engine) explainBuckets(t core.Target, res *Result, refs map[int64]*trace.Trace) {
	for i := range res.Buckets {
		if b := &res.Buckets[i]; b.Detected && b.example != nil {
			e.explainBucket(t, b, &res.Stats, refs[b.ExampleSeed])
		}
	}
}

// explainBucket minimizes and explains one bucket. It is panic-isolated:
// the minimization pass re-executes candidate plans, and a pathological
// plan must not take down the whole explanation pass — the bucket is
// simply left unexplained (the detection itself stands).
//
// With snapshotting on, a checkpoint tree rooted at the bucket's example
// plan backs the probes: minimization candidates and the instrumented
// re-execution fork from a rung captured mid-plan, after the perturbed
// prefix they share with the example, and fall back to full replays
// whenever the fork cannot be proven exact — results are identical either
// way, diagnosable fallbacks are counted into st.
func (e *Engine) explainBucket(t core.Target, b *FailureBucket, st *Stats, ref *trace.Trace) {
	defer func() { _ = recover() }()
	seed := b.ExampleSeed
	var pt *planTree
	if e.cfg.Snapshot {
		pt = buildPlanTree(t, b.example, seed, ref, effectTimes(subPlans(b.example), ref))
	}
	probe := func(q core.Plan, instrument bool) (core.Execution, *trace.Trace) {
		exec, tr, cause := e.execute(t, q, seed, instrument, pt)
		st.noteFallback(cause)
		return exec, tr
	}
	runner := func(_ core.Target, q core.Plan, _ int64) core.Execution {
		exec, _ := probe(q, false)
		return exec
	}
	minimal, execs := core.MinimizeSeedRun(t, b.example, seed, runner)
	switch mp := minimal.(type) {
	case core.StalenessPlan:
		narrowed, more := core.NarrowWindowSeedRun(t, mp, seed, runner)
		minimal = narrowed
		execs += more
	case core.FlakyLinkPlan:
		narrowed, more := core.NarrowFlakyWindowSeedRun(t, mp, seed, runner)
		minimal = narrowed
		execs += more
	}
	pexec, pert := probe(minimal, true)
	if pert == nil {
		return // the re-execution failed or hung: nothing to explain from
	}
	execs++ // the instrumented re-execution
	b.MinimalPlan = minimal.Describe()
	b.MinimalPlanID = minimal.ID()
	b.MinimizeExecutions = execs
	b.Explanation = explain.FromTraces(t, minimal, seed, ref, pert, pexec.Violations)
}

// runOrdered executes plans in list order across the worker pool.
// Indices are dispatched monotonically and results land in per-index
// slots, so the outcome — detect = the lowest detecting index, with every
// lower index executed and undetected — is identical to the serial
// campaign at any worker count. Once a detection is known, indices beyond
// it are not started (early cancel) unless KeepGoing is set or runAll
// forces the whole list (the corpus regression block). maxExec bounds
// dispatches (0 = unlimited); the returned detect is a position in the
// given list, not an original strategy index.
func (e *Engine) runOrdered(t core.Target, plans []planRef, seed int64, maxExec int, pt *planTree, runAll bool) ([]slot, int) {
	limit := len(plans)
	if maxExec > 0 && maxExec < limit {
		limit = maxExec
	}
	slots := make([]slot, limit)
	if limit == 0 {
		return slots, -1
	}
	instrument := e.cfg.instrumented()

	var next int64 = -1
	firstDetect := int64(limit) // min-reduced detecting index
	nw := e.cfg.workerCount()
	if nw > limit {
		nw = limit
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= limit {
					return
				}
				if !runAll && !e.cfg.KeepGoing && int64(i) > atomic.LoadInt64(&firstDetect) {
					// A plan ordered before this one already detected;
					// the serial campaign would never have run it.
					return
				}
				start := time.Now()
				exec, tr, fb := e.execute(t, plans[i].plan, seed, instrument, pt)
				slots[i] = slot{
					ran: true, planIndex: plans[i].index, plan: plans[i].plan,
					exec: exec, sig: signatureOrZero(tr, exec), wall: time.Since(start), fallback: fb,
				}
				if exec.Detected {
					for {
						cur := atomic.LoadInt64(&firstDetect)
						if int64(i) >= cur || atomic.CompareAndSwapInt64(&firstDetect, cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if fd := int(firstDetect); fd < limit {
		return slots, fd
	}
	return slots, -1
}

// runGuided executes plans in coverage-first order, batch-synchronously:
// each round the scheduler deterministically picks up to Workers pending
// plans (using feedback from all completed rounds), the batch executes in
// parallel, and its signatures are fed back in dispatch order before the
// next round is planned. The schedule is therefore a pure function of
// (plans, seed, worker count) — guided campaigns reproduce exactly at a
// fixed worker count, which the telemetry stream and failure buckets rely
// on. Slots are indexed by dispatch sequence; detect is the lowest
// dispatch sequence that detected. After a detection the current round
// finishes (its executions are part of the deterministic schedule) and no
// further round starts unless KeepGoing is set. maxExec bounds dispatches
// (0 = unlimited). With learning, the list is the (possibly ranked) kept
// set or the deferred tail; schedItem indices are positions in that list,
// so coverage tie-breaking follows the learned order while reported plan
// indices stay the strategy's.
func (e *Engine) runGuided(t core.Target, plans []planRef, seed int64, maxExec int, pt *planTree, preSeen []Signature) ([]slot, int) {
	limit := len(plans)
	if maxExec > 0 && maxExec < limit {
		limit = maxExec
	}
	slots := make([]slot, limit)
	if limit == 0 {
		return slots, -1
	}
	sched := newCoverageScheduler(plans, limit, preSeen)
	nw := e.cfg.workerCount()

	detect := -1
	dispatched := 0
	for dispatched < limit {
		if detect >= 0 && !e.cfg.KeepGoing {
			break
		}
		// Plan the round deterministically from current knowledge.
		batch := make([]schedItem, 0, nw)
		seqs := make([]int, 0, nw)
		for len(batch) < nw {
			item, seq, ok := sched.next()
			if !ok {
				break
			}
			batch = append(batch, item)
			seqs = append(seqs, seq)
		}
		if len(batch) == 0 {
			break
		}
		// Execute the round in parallel.
		var wg sync.WaitGroup
		for bi := range batch {
			wg.Add(1)
			go func(bi int) {
				defer wg.Done()
				start := time.Now()
				exec, tr, fb := e.execute(t, batch[bi].plan, seed, true, pt)
				slots[seqs[bi]] = slot{
					ran: true, planIndex: plans[batch[bi].index].index, plan: batch[bi].plan,
					exec: exec, sig: signatureOrZero(tr, exec), wall: time.Since(start), fallback: fb,
				}
			}(bi)
		}
		wg.Wait()
		// Feed results back in dispatch order (deterministic).
		for bi := range batch {
			sl := slots[seqs[bi]]
			sched.record(batch[bi].class, sl.sig)
			if sl.exec.Detected && (detect < 0 || seqs[bi] < detect) {
				detect = seqs[bi]
			}
		}
		dispatched += len(batch)
	}
	return slots, detect
}

// execute runs one plan: forked from the checkpoint tree when one exists
// and can prove the fork exact, as a full replay otherwise. With instrument
// set the returned trace is the execution's full trace from t=0 (nil for
// failed and hung executions). Execution RECORDS are identical either way
// — fork vs. full replay must never change any artifact byte — but
// diagnosable fallbacks (strict-past violation, restore error, watchdog
// trip) are returned per cause so a substrate that silently degrades to
// full replay is visible in Stats.SnapshotFallbacks.
func (e *Engine) execute(t core.Target, p core.Plan, seed int64, instrument bool, pt *planTree) (core.Execution, *trace.Trace, fallbackCause) {
	cause := fallbackNone
	if pt != nil {
		exec, tr, ok, c := pt.run(t, p, instrument, e.cfg.EventBudget)
		if ok {
			return exec, tr, fallbackNone
		}
		cause = c
	}
	exec, tr := runGuarded(t, p, seed, instrument, e.cfg.EventBudget)
	return exec, tr, cause
}

// violates reports whether the named oracle appears in the violation list.
func violates(violations []oracle.Violation, bug string) bool {
	for _, v := range violations {
		if v.Oracle == bug {
			return true
		}
	}
	return false
}

// firstViolation returns a copy of the first violation of the named
// oracle, or nil.
func firstViolation(violations []oracle.Violation, bug string) *oracle.Violation {
	for _, v := range violations {
		if v.Oracle == bug {
			fv := v
			return &fv
		}
	}
	return nil
}
