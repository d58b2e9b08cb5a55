// Package oracle defines the safety and liveness invariants used as test
// oracles (paper §6.2 "what workloads and test oracles to use"). Oracles
// inspect ground truth — the store's (H, S) and component host state —
// never the cached views, so a violation is a real bug manifestation, not
// an artifact of staleness.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	Oracle string
	Time   sim.Time
	Detail string
	// Kind/Object identify the ground-truth object the invariant is about
	// (e.g. Pod/p1, PVC/cass-1-data); empty when the breach is not tied to
	// a single object. Explanations use them to anchor the causal chain.
	Kind   string `json:",omitempty"`
	Object string `json:",omitempty"`
	// Component names the acting component most directly implicated in the
	// breach, when the oracle can tell (e.g. "scheduler").
	Component string `json:",omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Time, v.Oracle, v.Detail)
}

// Oracle checks one invariant. Check is called periodically with the
// current virtual time and returns a non-nil violation when the invariant
// is broken at this instant.
type Oracle interface {
	Name() string
	Check(now sim.Time) *Violation
}

// Func adapts a function to Oracle.
type Func struct {
	OracleName string
	CheckFunc  func(now sim.Time) *Violation
}

// Name implements Oracle.
func (f Func) Name() string { return f.OracleName }

// Check implements Oracle.
func (f Func) Check(now sim.Time) *Violation { return f.CheckFunc(now) }

// Runner ticks periodically, evaluates on each tick the oracles whose
// answer can have changed since they last ran, and collects the first
// violation of each.
type Runner struct {
	oracles []gated
	state   RunnerSnapshot
	// handles are the row sets Since has handed out, by oracle: each holds
	// the oracle's entry of state.Since, and RestoreFrom re-points it.
	handles map[string]*Since

	// Periodic-tick binding (set by InstallPeriodic / BindPeriodic).
	w     *sim.World
	every sim.Duration
	tick  *sim.Owner
}

// RunnerSnapshot is a runner's state, everything it carries from one tick
// to the next: the first violation of each oracle, in detection order, and
// the first-seen table, (oracle, subject) → first seen — the one place an
// oracle keeps a clock.
type RunnerSnapshot struct {
	First map[string]Violation
	Order []string
	Since map[string]map[string]sim.Time
}

func (s RunnerSnapshot) clone() RunnerSnapshot {
	s.First = sim.CloneMap(s.First)
	s.Order = slices.Clone(s.Order)
	since := make(map[string]map[string]sim.Time, len(s.Since))
	for oracle, rows := range s.Since {
		since[oracle] = sim.CloneMap(rows)
	}
	s.Since = since
	return s
}

// NewRunner creates an empty runner.
func NewRunner() *Runner {
	return &Runner{
		state:   RunnerSnapshot{First: make(map[string]Violation), Since: make(map[string]map[string]sim.Time)},
		handles: make(map[string]*Since),
	}
}

// Since is one oracle's rows of its runner's first-seen table: for every
// subject the oracle is currently waiting on, the tick at which the wait
// began. Anything an oracle needs at tick n+1 that depends on tick n and
// cannot be recomputed from ground truth lives here and nowhere else, so
// Runner.Snapshot and RestoreFrom carry it without the oracle's help — and
// the runner knows, without asking the oracle, the next tick at which a
// wait runs out.
type Since struct {
	rows map[string]sim.Time
	// within is how long a subject must have been seen before the oracle
	// acts on it; whether it compares with > or >= stays the oracle's.
	within sim.Duration
}

// Since returns the named oracle's rows of the first-seen table. within is
// the oracle's patience: with ground truth unchanged, its answer changes
// only on the ticks at which a row becomes within old.
func (r *Runner) Since(oracle string, within sim.Duration) *Since {
	s := r.rows(oracle)
	s.within = within
	return s
}

func (r *Runner) rows(oracle string) *Since {
	s := r.handles[oracle]
	if s == nil {
		s = &Since{rows: r.table(oracle)}
		r.handles[oracle] = s
	}
	return s
}

// table returns the oracle's entry of the first-seen table, made on demand.
func (r *Runner) table(oracle string) map[string]sim.Time {
	rows := r.state.Since[oracle]
	if rows == nil {
		rows = make(map[string]sim.Time)
		r.state.Since[oracle] = rows
	}
	return rows
}

// Mark records that subject is seen at now and returns how long it has
// been seen without interruption: zero on first sight.
func (s *Since) Mark(subject string, now sim.Time) sim.Duration {
	first, ok := s.rows[subject]
	if !ok {
		s.rows[subject] = now
		return 0
	}
	return now.Sub(first)
}

// Forget drops every subject that is not in seen, so a subject that comes
// back starts over. seen must hold exactly the subjects marked this tick:
// it is then a subset of the rows, and equal sizes mean nothing to drop —
// the steady tick, which must stay free.
func (s *Since) Forget(seen map[string]bool) {
	if len(s.rows) == len(seen) {
		return
	}
	for subject := range s.rows {
		if !seen[subject] {
			delete(s.rows, subject)
		}
	}
}

// never is the wake time of an oracle that waits on nothing.
const never = sim.Time(math.MaxInt64)

// wake returns the earliest instant at or after now at which a row becomes
// within old. A row that did so strictly before now has been acted on under
// either comparison; one that does so exactly at now has only under >=, so
// it still counts and the tick after now evaluates once more.
func (s *Since) wake(now sim.Time) sim.Time {
	wake := never
	for _, first := range s.rows {
		if at := first.Add(s.within); at >= now && at < wake {
			wake = at
		}
	}
	return wake
}

// gated is one registered oracle with what decides whether a tick has to
// evaluate it. An oracle reads only the ground truth it declared and the
// clock, and the clock only through its rows of the first-seen table; so a
// tick on which no declared generation has moved and no row has become
// within old would get the previous tick's answer, and is skipped.
type gated struct {
	o    Oracle
	deps []dependency
	// wake is the next instant a wait runs out, as of the tick o was last
	// settled on. Zero, in the past of every tick, voids the gate: on a fresh
	// runner and after RestoreFrom no dependency's seen means anything.
	wake sim.Time
}

// dependency is one declared generation and its value when the oracle was
// last settled.
type dependency struct {
	gen  *sim.Generation
	seen uint64
}

// due reports whether the tick at now must evaluate the oracle. It is all
// most ticks do, so it only loads and compares.
func (g *gated) due(now sim.Time) bool {
	if len(g.deps) == 0 || now >= g.wake {
		return true
	}
	for i := range g.deps {
		if d := &g.deps[i]; d.gen.Value() != d.seen {
			return true
		}
	}
	return false
}

// Add registers an oracle together with the ground truth it reads: deps
// are the generations of everything o.Check looks at. An oracle that
// declares nothing is evaluated on every tick.
func (r *Runner) Add(o Oracle, deps ...*sim.Generation) {
	g := gated{o: o, deps: make([]dependency, len(deps))}
	for i, gen := range deps {
		g.deps[i].gen = gen
	}
	r.oracles = append(r.oracles, g)
}

// Report records an externally detected violation (used by event-driven
// oracles hooked into the store). Only the first violation per oracle is
// kept.
func (r *Runner) Report(v Violation) {
	if _, ok := r.state.First[v.Oracle]; ok {
		return
	}
	r.state.First[v.Oracle] = v
	r.state.Order = append(r.state.Order, v.Oracle)
}

// CheckNow is one tick: it evaluates every oracle that is due and has not
// been violated yet, in registration order.
func (r *Runner) CheckNow(now sim.Time) {
	for i := range r.oracles {
		g := &r.oracles[i]
		if !g.due(now) {
			continue
		}
		name := g.o.Name()
		if _, violated := r.state.First[name]; !violated {
			if v := g.o.Check(now); v != nil {
				r.Report(*v)
			}
		}
		for j := range g.deps {
			g.deps[j].seen = g.deps[j].gen.Value()
		}
		g.wake = never
		if s := r.handles[name]; s != nil {
			g.wake = s.wake(now)
		}
	}
}

// InstallPeriodic schedules CheckNow every interval on the world's kernel,
// forever (the simulation's run bound ends it).
func (r *Runner) InstallPeriodic(w *sim.World, every sim.Duration) {
	r.BindPeriodic(w, every)
	r.armTick()
}

// BindPeriodic records the world and interval the periodic tick uses and
// registers the runner as the kernel's observer, the owner of the tick,
// without scheduling anything (restore path: the kernel re-inserts the
// pending tick from its snapshot).
func (r *Runner) BindPeriodic(w *sim.World, every sim.Duration) {
	r.w = w
	r.every = every
	r.tick = w.Kernel().Observe("oracles", r.tickFire)
}

func (r *Runner) armTick() { r.tick.After(r.every, sim.EventTag{Kind: "tick"}) }

// tickFire is the periodic tick, the one timer the runner owns.
func (r *Runner) tickFire(sim.EventTag) {
	r.CheckNow(r.w.Now())
	r.armTick()
}

// Snapshot captures the runner.
func (r *Runner) Snapshot() *RunnerSnapshot {
	s := r.state.clone()
	return &s
}

// RestoreFrom replaces this runner's violations and first-seen table with
// the snapshot's. Oracles hold no clock of their own, so the same set
// registered on this runner (bound to the restored world's components)
// continues exactly where the captured one stood. What each oracle last
// saw was seen of another table: the next tick evaluates them all.
func (r *Runner) RestoreFrom(snap *RunnerSnapshot) {
	r.state = snap.clone()
	for oracle, s := range r.handles {
		s.rows = r.table(oracle)
	}
	for i := range r.oracles {
		r.oracles[i].wake = 0
	}
}

// Violations returns all recorded violations in detection order.
func (r *Runner) Violations() []Violation {
	out := make([]Violation, 0, len(r.state.Order))
	for _, name := range r.state.Order {
		out = append(out, r.state.First[name])
	}
	return out
}

// Violated reports whether the named oracle was breached.
func (r *Runner) Violated(name string) bool {
	_, ok := r.state.First[name]
	return ok
}

// Names returns the names of all registered oracles plus any reported-only
// ones, sorted.
func (r *Runner) Names() []string {
	set := map[string]bool{}
	for _, g := range r.oracles {
		set[g.o.Name()] = true
	}
	for n := range r.state.First {
		set[n] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
