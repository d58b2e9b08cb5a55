// Package oracle defines the safety and liveness invariants used as test
// oracles (paper §6.2 "what workloads and test oracles to use"). Oracles
// inspect ground truth — the store's (H, S) and component host state —
// never the cached views, so a violation is a real bug manifestation, not
// an artifact of staleness.
package oracle

import (
	"fmt"
	"maps"
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

// Runner evaluates a set of oracles periodically and collects the first
// violation of each.
type Runner struct {
	oracles []Oracle
	first   map[string]Violation
	order   []string
	// since is the first-seen table, (oracle, subject) → first seen: the
	// one place an oracle keeps a clock from one tick to the next.
	since map[string]Since

	// Periodic-tick binding (set by InstallPeriodic / BindPeriodic).
	w     *sim.World
	every sim.Duration
	// tickFn caches the tickFire method value: armTick runs every tick and
	// binding the method fresh each time allocates.
	tickFn func()
}

// NewRunner creates an empty runner.
func NewRunner() *Runner {
	return &Runner{first: make(map[string]Violation), since: make(map[string]Since)}
}

// Since is one oracle's rows of its runner's first-seen table: for every
// subject the oracle is currently waiting on, the tick at which the wait
// began. Anything an oracle needs at tick n+1 that depends on tick n and
// cannot be recomputed from ground truth lives here and nowhere else, so
// Runner.Snapshot and RestoreFrom carry it without the oracle's help.
type Since map[string]sim.Time

// Since returns the named oracle's rows of the first-seen table.
func (r *Runner) Since(oracle string) Since {
	s := r.since[oracle]
	if s == nil {
		s = Since{}
		r.since[oracle] = s
	}
	return s
}

// Mark records that subject is seen at now and returns how long it has
// been seen without interruption: zero on first sight.
func (s Since) Mark(subject string, now sim.Time) sim.Duration {
	first, ok := s[subject]
	if !ok {
		s[subject] = now
		return 0
	}
	return now.Sub(first)
}

// Forget drops every subject that is not in seen, so a subject that comes
// back starts over. seen must hold exactly the subjects marked this tick:
// it is then a subset of the rows, and equal sizes mean nothing to drop —
// the steady tick, which must stay free.
func (s Since) Forget(seen map[string]bool) {
	if len(s) == len(seen) {
		return
	}
	for subject := range s {
		if !seen[subject] {
			delete(s, subject)
		}
	}
}

// Add registers an oracle.
func (r *Runner) Add(o Oracle) { r.oracles = append(r.oracles, o) }

// Report records an externally detected violation (used by event-driven
// oracles hooked into the store). Only the first violation per oracle is
// kept.
func (r *Runner) Report(v Violation) {
	if _, ok := r.first[v.Oracle]; ok {
		return
	}
	r.first[v.Oracle] = v
	r.order = append(r.order, v.Oracle)
}

// CheckNow evaluates every oracle once.
func (r *Runner) CheckNow(now sim.Time) {
	for _, o := range r.oracles {
		if _, ok := r.first[o.Name()]; ok {
			continue
		}
		if v := o.Check(now); v != nil {
			r.Report(*v)
		}
	}
}

// InstallPeriodic schedules CheckNow every interval on the world's kernel,
// forever (the simulation's run bound ends it). The tick is tagged so
// prefix checkpoints can capture and re-arm it.
func (r *Runner) InstallPeriodic(w *sim.World, every sim.Duration) {
	r.BindPeriodic(w, every)
	r.armTick()
}

// BindPeriodic records the world and interval the periodic tick uses
// without scheduling anything (restore path: the pending tick event is
// re-installed by the orchestration via Rearm).
func (r *Runner) BindPeriodic(w *sim.World, every sim.Duration) {
	r.w = w
	r.every = every
}

func (r *Runner) armTick() {
	if r.tickFn == nil {
		r.tickFn = r.tickFire
	}
	r.w.Kernel().ScheduleTagged(r.every, sim.EventTag{Owner: "oracles", Kind: "tick"}, r.tickFn)
}

func (r *Runner) tickFire() {
	r.CheckNow(r.w.Now())
	r.armTick()
}

// Rearm returns the callback for a pending kernel event owned by the
// oracle runner. BindPeriodic must have been called first.
func (r *Runner) Rearm(tag sim.EventTag) (func(), error) {
	switch tag.Kind {
	case "tick":
		return r.tickFire, nil
	default:
		return nil, fmt.Errorf("oracle: unknown pending event kind %q", tag.Kind)
	}
}

// RunnerSnapshot captures the runner's recorded violations and its
// first-seen table: everything a runner carries from one tick to the next.
type RunnerSnapshot struct {
	First map[string]Violation
	Order []string
	Since map[string]Since
}

// Snapshot captures the runner.
func (r *Runner) Snapshot() *RunnerSnapshot {
	s := &RunnerSnapshot{
		First: maps.Clone(r.first),
		Order: append([]string(nil), r.order...),
		Since: make(map[string]Since, len(r.since)),
	}
	for oracle, rows := range r.since {
		s.Since[oracle] = maps.Clone(rows)
	}
	return s
}

// RestoreFrom replaces this runner's violations and first-seen table with
// the snapshot's. Oracles hold no clock of their own, so the same set
// registered on this runner (bound to the restored world's components)
// continues exactly where the captured one stood.
func (r *Runner) RestoreFrom(snap *RunnerSnapshot) {
	r.first = maps.Clone(snap.First)
	r.order = append([]string(nil), snap.Order...)
	// In place: the registered oracles hold these row sets.
	for _, rows := range r.since {
		clear(rows)
	}
	for oracle, rows := range snap.Since {
		maps.Copy(r.Since(oracle), rows)
	}
}

// Violations returns all recorded violations in detection order.
func (r *Runner) Violations() []Violation {
	out := make([]Violation, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.first[name])
	}
	return out
}

// Violated reports whether the named oracle was breached.
func (r *Runner) Violated(name string) bool {
	_, ok := r.first[name]
	return ok
}

// Names returns the names of all registered oracles plus any reported-only
// ones, sorted.
func (r *Runner) Names() []string {
	set := map[string]bool{}
	for _, o := range r.oracles {
		set[o.Name()] = true
	}
	for n := range r.first {
		set[n] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
