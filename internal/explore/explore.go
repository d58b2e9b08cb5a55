// Package explore is the bounded systematic explorer: where campaigns
// (internal/campaign) SAMPLE perturbation plans, explore ENUMERATES every
// schedule of delivery perturbations inside a bounded window — DFS with
// backtracking over delivery choice-points — and terminates with either a
// minimized violation witness or a no-violation certificate for the
// exhausted bound. This is the ROADMAP item 6 capability: the
// verification-style complement (Kivi, Representative Testing — see
// PAPERS.md) to the paper's sampling argument, made tractable by the same
// partial-history machinery the campaigns use:
//
//   - choice-points are the reference run's watch deliveries; decisions
//     perturb them at DELIVERY coordinates (core.DropDeliveryPlan /
//     DelayDeliveryPlan riding sim.DeliveryGate), so every explored
//     schedule is an ordinary replayable plan — the witness IS the
//     exploration step;
//   - partial-order reduction comes from the mined read-dependency model
//     (learn.Mine): a drop or delay of a delivery outside its receiver's
//     consumed set commutes with the receiver's actions, so schedules
//     differing only there collapse into one representative (crash
//     decisions are exempt — crashing a receiver never commutes);
//   - the visited-state set keys on the full-run trace.StateHash, and a
//     revisit with no more remaining freedom than a prior visit prunes
//     the whole subtree; schedule executions fork from PR 7 checkpoint
//     trees (campaign.Forker) instead of replaying from t=0;
//   - decisions are enumerated in one fixed coordinate order and DFS only
//     extends forward (monotone ordering), so no permutation of the same
//     decision set is ever executed twice — the structural form of
//     sleep-set pruning for commuting decision sets.
//
// Everything here is a pure function of (target, seed, bounds): the
// explorer is serial and the simulation deterministic, so certificates
// are byte-identical across reruns, hosts, and snapshot on/off.
package explore

import (
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/learn"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Decision kinds, in coordinate order within one choice-point.
const (
	kindDrop  = "drop"
	kindDelay = "delay"
	kindCrash = "crash"
)

// DefaultDelay is the deferral applied by delay decisions when the bound
// does not set one.
const DefaultDelay = 2 * sim.Second

// DefaultMaxSchedules is the execution safety valve: an exploration that
// would exceed it aborts with OutcomeBudget instead of emitting an
// unsound certificate.
const DefaultMaxSchedules = 4096

// Bounds is the explored scope. The certificate is a statement about
// exactly this scope, nothing more.
type Bounds struct {
	// Start / Window clip the choice-point window in virtual time:
	// deliveries arriving in [Start, Start+Window]. Window 0 means "to
	// the end of the run".
	Start  sim.Time
	Window sim.Duration
	// Drops / Delays / Crashes bound how many decisions of each kind one
	// schedule may contain.
	Drops   int
	Delays  int
	Crashes int
	// Delay is the deferral applied by delay decisions (DefaultDelay if 0).
	Delay sim.Duration
	// MaxSchedules aborts the exploration when more executions would be
	// needed (DefaultMaxSchedules if 0). An aborted exploration yields no
	// certificate.
	MaxSchedules int
}

// Config configures one exploration.
type Config struct {
	Target core.Target
	Seed   int64
	Bounds Bounds
	// POR enables the partial-order reduction (on for real use; off for
	// the soundness cross-check, which must find the same violations).
	POR bool
	// Snapshot enables checkpoint-tree forking for schedule executions.
	// Results are identical either way; forks are just faster.
	Snapshot bool
}

// Outcomes.
const (
	OutcomeViolation   = "violation"
	OutcomeCertificate = "certificate"
	OutcomeBudget      = "budget-exhausted"
)

// Stats are the deterministic exploration counters. Everything here is a
// pure function of (target, seed, bounds, por) — no host-side detail.
type Stats struct {
	// ChoicePoints is the number of window deliveries considered.
	ChoicePoints int `json:"choice_points"`
	// DecisionsFull / DecisionsReduced count the decision vocabulary
	// before and after partial-order reduction.
	DecisionsFull    int `json:"decisions_full"`
	DecisionsReduced int `json:"decisions_reduced"`
	// ScheduleSpace is the number of schedules in the UNREDUCED space —
	// every subset of the full decision list within the bounds.
	ScheduleSpace uint64 `json:"schedule_space"`
	// SchedulesExecuted counts actual executions (the reference counts
	// as the empty schedule).
	SchedulesExecuted uint64 `json:"schedules_executed"`
	// SchedulesCollapsed = ScheduleSpace - SchedulesExecuted, split by
	// cause: CollapsedPOR are schedules containing a reduced-away
	// decision; CollapsedVisited are subtrees pruned at a visited state.
	SchedulesCollapsed uint64 `json:"schedules_collapsed"`
	CollapsedPOR       uint64 `json:"collapsed_por"`
	CollapsedVisited   uint64 `json:"collapsed_visited"`
	// StatesVisited counts distinct full-run StateHash keys reached.
	StatesVisited int `json:"states_visited"`
}

// Witness is a found violation: the schedule as discovered, its
// minimized form, and the causal chain internal/explain renders for it.
type Witness struct {
	Schedule      string               `json:"schedule"`
	MinimalID     string               `json:"minimal_id"`
	MinimalPlan   string               `json:"minimal_plan"`
	MinimizeExecs int                  `json:"minimize_execs"`
	Explanation   *explain.Explanation `json:"explanation"`
}

// Result is one exploration's outcome.
type Result struct {
	Outcome     string       `json:"outcome"`
	Witness     *Witness     `json:"witness,omitempty"`
	Certificate *Certificate `json:"certificate,omitempty"`
	Stats       Stats        `json:"stats"`
	// Forks / Replays report how executions were served (host-side
	// performance detail — deliberately NOT part of the certificate).
	Forks   int `json:"forks"`
	Replays int `json:"replays"`
}

// decision is one entry of the ordered decision list.
type decision struct {
	kind     string
	delivery trace.Delivery
	plan     core.Plan
	// consumed: the delivery is in its receiver's mined consumed set.
	consumed bool
	// commuting: a delay that provably (under the mined model) cannot
	// reorder the delivery past any observation or commit.
	commuting bool
}

// explorer is the DFS state for one Run.
type explorer struct {
	cfg       Config
	bounds    Bounds
	forker    *campaign.Forker
	decisions []decision // reduced list the DFS walks
	sufDrop   []int      // decisions[i:] kind counts, len(decisions)+1
	sufDelay  []int
	sufCrash  []int
	visited   map[uint64][]visitEntry
	stats     Stats
	witness   core.SequencePlan
	found     bool
	exhausted bool
}

type visitEntry struct {
	next              int
	drops, delays, cr int
}

// Run explores the bounded schedule space and returns a witness, a
// certificate, or a budget abort.
func Run(cfg Config) *Result {
	b := cfg.Bounds
	if b.Delay <= 0 {
		b.Delay = DefaultDelay
	}
	if b.MaxSchedules <= 0 {
		b.MaxSchedules = DefaultMaxSchedules
	}
	t := cfg.Target
	ref, refViolations := core.ReferenceSeed(t, cfg.Seed)
	model := learn.Mine(ref, 0)

	wStart := b.Start
	wEnd := sim.Time(math.MaxInt64)
	if b.Window > 0 {
		wEnd = wStart.Add(b.Window)
	}

	e := &explorer{cfg: cfg, bounds: b, visited: make(map[uint64][]visitEntry)}

	// Choice points: window deliveries to components under test.
	var cps []trace.Delivery
	for _, d := range ref.Deliveries {
		if d.To == "admin" || d.Time < wStart || d.Time > wEnd {
			continue
		}
		cps = append(cps, d)
	}
	e.stats.ChoicePoints = len(cps)

	// Full decision list in coordinate order (trace order, then kind).
	full := buildDecisions(cps, model, b, ref)
	e.stats.DecisionsFull = len(full)
	reduced := full
	if cfg.POR {
		reduced = nil
		for _, d := range full {
			// Crash decisions are exempt from the reduction: the
			// delivery-independence argument (an unconsumed delivery
			// commutes with its receiver's actions) says nothing about
			// crash-restarting the receiver at that delivery's time —
			// a state-destroying perturbation with no commuting
			// representative. Only drops/delays of dead deliveries and
			// provably-identity delays collapse.
			if d.kind == kindCrash || (d.consumed && !d.commuting) {
				reduced = append(reduced, d)
			}
		}
	}
	e.decisions = reduced
	e.stats.DecisionsReduced = len(reduced)
	e.indexSuffixes()

	e.stats.ScheduleSpace = spaceOf(kindCounts(full), b)
	reducedSpace := spaceOf(kindCounts(reduced), b)
	e.stats.CollapsedPOR = e.stats.ScheduleSpace - reducedSpace

	// Fork substrate: checkpoints near the (quantile-sampled) decision
	// arrival times.
	var cands []sim.Time
	if cfg.Snapshot {
		cands = quantileTimes(reduced, 11)
	}
	e.forker = campaign.NewForker(t, cfg.Seed, ref, cands)

	// The empty schedule is the reference run — already executed. If it
	// already violates the oracle, the empty schedule IS the witness: a
	// "no violation within bound" certificate over a baseline that fails
	// unperturbed would be meaningless.
	e.stats.SchedulesExecuted = 1
	if len(refViolations) > 0 {
		e.witness = core.SequencePlan{Name: "explore"}
		e.found = true
	} else {
		e.visited[ref.StateHash()] = []visitEntry{{0, b.Drops, b.Delays, b.Crashes}}
		e.dfs(nil, 0, b.Drops, b.Delays, b.Crashes)
	}
	e.stats.StatesVisited = len(e.visited)

	// Collapse accounting holds in every outcome; on an exhaustive finish
	// (certificate) it additionally satisfies executed + collapsed == space.
	e.stats.SchedulesCollapsed = e.stats.CollapsedPOR + e.stats.CollapsedVisited
	res := &Result{}
	switch {
	case e.found:
		res.Outcome = OutcomeViolation
		res.Witness = e.buildWitness(t, ref)
	case e.exhausted:
		res.Outcome = OutcomeBudget
	default:
		res.Outcome = OutcomeCertificate
		res.Certificate = newCertificate(t, cfg, b, wStart, wEnd, e.stats)
	}
	res.Stats = e.stats
	res.Forks, res.Replays = e.forker.Forks, e.forker.Replays
	return res
}

// buildDecisions emits the full decision list: for each choice point, a
// drop, a delay, and (once per distinct crash coordinate) a crash
// decision, gated on the respective bound being non-zero.
func buildDecisions(cps []trace.Delivery, model *learn.Model, b Bounds, ref *trace.Trace) []decision {
	var out []decision
	crashSeen := map[string]bool{}
	for _, d := range cps {
		consumed := model.ConsumedDelivery(d)
		if b.Drops > 0 {
			out = append(out, decision{kind: kindDrop, delivery: d, consumed: consumed,
				plan: core.DropDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name,
					Type: d.EventType, Occurrence: d.Occurrence}})
		}
		if b.Delays > 0 {
			out = append(out, decision{kind: kindDelay, delivery: d, consumed: consumed,
				commuting: delayCommutes(ref, d, b.Delay),
				plan: core.DelayDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name,
					Type: d.EventType, Occurrence: d.Occurrence, Delay: b.Delay}})
		}
		if b.Crashes > 0 {
			// Crash the receiver just after it observed this delivery —
			// the observe-then-die placement partial histories care about.
			key := string(d.To) + "@" + d.Time.String()
			if !crashSeen[key] {
				crashSeen[key] = true
				out = append(out, decision{kind: kindCrash, delivery: d, consumed: consumed,
					plan: core.CrashPlan{Component: d.To, At: d.Time.Add(sim.Millisecond),
						RestartDelay: 500 * sim.Millisecond}})
			}
		}
	}
	return out
}

// delayCommutes reports whether delaying d by delay provably commutes
// under the state abstraction: no other delivery reaches d.To and no
// ground-truth commit lands inside (d.Time, d.Time+delay], so neither the
// receiver's observation order nor the commit order can change. This is
// model-relative soundness — the POR cross-check (no-POR run on a tiny
// bound) validates it empirically.
func delayCommutes(ref *trace.Trace, d trace.Delivery, delay sim.Duration) bool {
	until := d.Time.Add(delay)
	for _, o := range ref.Deliveries {
		if o.To == d.To && o.Time > d.Time && o.Time <= until {
			return false
		}
	}
	for _, c := range ref.Commits {
		ct := sim.Time(c.Time)
		if ct > d.Time && ct <= until {
			return false
		}
	}
	return true
}

// dfs extends the current schedule with every decision at index >= next,
// depth-first. Returns true when a violation was found (stop everything).
func (e *explorer) dfs(prefix []core.Plan, next, drops, delays, crashes int) bool {
	for j := next; j < len(e.decisions); j++ {
		d := e.decisions[j]
		ndr, nde, ncr := drops, delays, crashes
		switch d.kind {
		case kindDrop:
			if ndr == 0 {
				continue
			}
			ndr--
		case kindDelay:
			if nde == 0 {
				continue
			}
			nde--
		case kindCrash:
			if ncr == 0 {
				continue
			}
			ncr--
		}
		if e.stats.SchedulesExecuted >= uint64(e.bounds.MaxSchedules) {
			e.exhausted = true
			return false
		}
		plans := make([]core.Plan, len(prefix)+1)
		copy(plans, prefix)
		plans[len(prefix)] = d.plan
		sched := core.SequencePlan{Name: "explore", Plans: plans}
		exec, tr := e.forker.Run(sched)
		e.stats.SchedulesExecuted++
		if exec.Detected {
			e.witness = sched
			e.found = true
			return true
		}
		// Key on the FULL-run fingerprint, not a window-clipped prefix:
		// with Window > 0 a delay can push deliveries past the window
		// end, so two runs identical inside the window may still diverge
		// afterwards — and the oracle can fire in that suffix. A prefix
		// key could collapse a subtree holding the only violation.
		key := tr.StateHash()
		if e.dominated(key, j+1, ndr, nde, ncr) {
			e.stats.CollapsedVisited += e.spaceFrom(j+1, ndr, nde, ncr) - 1
			continue
		}
		e.visited[key] = append(e.visited[key], visitEntry{j + 1, ndr, nde, ncr})
		if e.dfs(plans, j+1, ndr, nde, ncr) {
			return true
		}
		if e.exhausted {
			return false
		}
	}
	return false
}

// dominated reports whether a prior visit of state key could reach every
// schedule the current node can: it had at least the remaining decisions
// (a lower next index) and at least the remaining budget.
func (e *explorer) dominated(key uint64, next, drops, delays, crashes int) bool {
	for _, v := range e.visited[key] {
		if v.next <= next && v.drops >= drops && v.delays >= delays && v.cr >= crashes {
			return true
		}
	}
	return false
}

func (e *explorer) buildWitness(t core.Target, ref *trace.Trace) *Witness {
	minimal, execs := core.MinimizeSeedRun(t, e.witness, e.cfg.Seed, e.forker.Runner())
	mexec, mtr := e.forker.Run(minimal)
	expl := explain.FromTraces(t, minimal, e.cfg.Seed, ref, mtr, mexec.Violations)
	return &Witness{
		Schedule:      e.witness.ID(),
		MinimalID:     minimal.ID(),
		MinimalPlan:   minimal.Describe(),
		MinimizeExecs: execs,
		Explanation:   expl,
	}
}

// indexSuffixes precomputes per-kind counts of decisions[i:], backing the
// exact size of pruned subtrees.
func (e *explorer) indexSuffixes() {
	n := len(e.decisions)
	e.sufDrop = make([]int, n+1)
	e.sufDelay = make([]int, n+1)
	e.sufCrash = make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		e.sufDrop[i], e.sufDelay[i], e.sufCrash[i] = e.sufDrop[i+1], e.sufDelay[i+1], e.sufCrash[i+1]
		switch e.decisions[i].kind {
		case kindDrop:
			e.sufDrop[i]++
		case kindDelay:
			e.sufDelay[i]++
		case kindCrash:
			e.sufCrash[i]++
		}
	}
}

// spaceFrom counts the schedules over decisions[i:] within the remaining
// budget (the empty schedule included).
func (e *explorer) spaceFrom(i, drops, delays, crashes int) uint64 {
	return spaceCounts(e.sufDrop[i], e.sufDelay[i], e.sufCrash[i], drops, delays, crashes)
}

type counts struct{ drop, delay, crash int }

func kindCounts(list []decision) counts {
	var c counts
	for _, d := range list {
		switch d.kind {
		case kindDrop:
			c.drop++
		case kindDelay:
			c.delay++
		case kindCrash:
			c.crash++
		}
	}
	return c
}

// spaceOf counts the schedules (decision subsets within the bounds) a
// decision list spans. Budgets are per kind, so the count factors into a
// product of binomial sums.
func spaceOf(c counts, b Bounds) uint64 {
	return spaceCounts(c.drop, c.delay, c.crash, b.Drops, b.Delays, b.Crashes)
}

func spaceCounts(nDrop, nDelay, nCrash, drops, delays, crashes int) uint64 {
	return satMul(satMul(chooseUpTo(nDrop, drops), chooseUpTo(nDelay, delays)), chooseUpTo(nCrash, crashes))
}

// chooseUpTo sums C(n, 0..k) with saturation.
func chooseUpTo(n, k int) uint64 {
	total := uint64(0)
	for i := 0; i <= k && i <= n; i++ {
		total = satAdd(total, binom(n, i))
	}
	if total == 0 {
		total = 1 // k < 0 cannot happen; n == 0 → only the empty choice
	}
	return total
}

const satCap = math.MaxUint64 / 4

func satAdd(a, b uint64) uint64 {
	if a > satCap || b > satCap || a+b > satCap {
		return satCap
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > satCap/b {
		return satCap
	}
	return a * b
}

func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := uint64(1)
	for i := 1; i <= k; i++ {
		f := uint64(n - k + i)
		if out > satCap/f {
			// Saturate HERE, before the division: dividing a capped
			// product by i would yield an arbitrary sub-cap value that
			// downstream saturating arithmetic treats as exact.
			return satCap
		}
		out = out * f / uint64(i)
	}
	return out
}

// quantileTimes samples up to max distinct arrival times from the
// decision list, evenly by rank — the checkpoint placement hint.
func quantileTimes(list []decision, max int) []sim.Time {
	var times []sim.Time
	seen := map[sim.Time]bool{}
	for _, d := range list {
		if !seen[d.delivery.Time] {
			seen[d.delivery.Time] = true
			times = append(times, d.delivery.Time)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) <= max {
		return times
	}
	out := make([]sim.Time, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, times[i*(len(times)-1)/(max-1)])
	}
	return out
}
