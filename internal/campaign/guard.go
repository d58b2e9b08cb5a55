package campaign

import (
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultEventBudget is the kernel step budget per execution when
// Config.EventBudget is zero. Healthy executions of the seeded targets use
// a few thousand kernel events; five million is two-plus orders of
// magnitude of headroom, so the watchdog only fires on genuinely
// livelocked plans (e.g. a zero-delay reschedule loop that stalls virtual
// time forever).
const DefaultEventBudget uint64 = 5_000_000

// maxStackBytes bounds the stack captured into a Failed execution record.
const maxStackBytes = 4096

// runGuarded is the full replay — Build, Apply, Workload, Run to the
// horizon — every execution that does not fork goes through, with
// per-execution robustness:
//
//   - panic recovery: a panic anywhere in Apply/Workload/Run is converted
//     into a Failed execution record carrying the plan ID, the panic value,
//     and a truncated stack — the worker survives and the pool keeps
//     draining plans;
//   - event-budget watchdog: the kernel is given a step budget (0 =
//     DefaultEventBudget); if the budget is exhausted before the virtual
//     clock reaches the horizon, the execution is flagged Hung (livelocked)
//     instead of spinning forever.
//
// With instrument set, a trace recorder is attached and the recorded trace
// returned; failed and hung executions return no trace (theirs are
// partial, and buckets must not alias them with healthy runs).
func runGuarded(t core.Target, p core.Plan, seed int64, instrument bool, budget uint64) (exec core.Execution, tr *trace.Trace) {
	if budget == 0 {
		budget = DefaultEventBudget
	}
	defer func() {
		if r := recover(); r != nil {
			exec = core.Execution{
				Failed:  true,
				Failure: fmt.Sprintf("panic in plan %s: %v\n%s", p.ID(), r, sanitizeStack(debug.Stack())),
			}
			tr = nil
		}
	}()

	c := t.Build(seed)
	var rec *trace.Recorder
	if instrument {
		rec = trace.NewRecorder()
		rec.Attach(c.World.Network(), c.Store.Store())
	}
	k := c.World.Kernel()
	// The budget counts from here: cluster construction (warmup included)
	// has already spent its steps.
	startSteps := k.Steps()
	deadline := k.Now().Add(t.Horizon)

	p.Apply(c)
	t.Workload(c)
	hung := runBudgeted(k, startSteps, budget, deadline)

	exec.Violations = c.Violations()
	exec.Detected = c.Oracles.Violated(t.Bug)
	if hung {
		exec.Hung = true
		exec.Failure = fmt.Sprintf(
			"watchdog: plan %s exhausted the event budget (%d kernel steps) at virtual time %s, short of the %s horizon — livelocked execution",
			p.ID(), budget, k.Now(), deadline)
		return exec, nil
	}
	if instrument {
		tr = rec.T
	}
	return exec, tr
}

// runBudgeted runs the kernel to deadline under the livelock watchdog: a
// budget of kernel steps (0 = DefaultEventBudget) counted from startSteps.
// It reports whether the budget ran out short of the deadline.
func runBudgeted(k *sim.Kernel, startSteps, budget uint64, deadline sim.Time) (hung bool) {
	if budget == 0 {
		budget = DefaultEventBudget
	}
	k.SetMaxSteps(startSteps + budget)
	k.Run(deadline)
	return k.Steps() >= startSteps+budget && k.Now() < deadline
}

// sanitizeStack reduces a panic stack to its deterministic skeleton:
// goroutine headers, argument values, and code offsets vary with worker
// count and allocation layout, but the function names and file:line frames
// do not. Failure records must stay byte-identical across worker counts —
// the same determinism contract every other artifact field honours.
func sanitizeStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	out := make([]string, 0, len(lines))
	for _, ln := range lines {
		if strings.HasPrefix(ln, "goroutine ") || ln == "" {
			continue
		}
		// "created by pkg.Func in goroutine N" — the goroutine number is
		// scheduling-dependent.
		if i := strings.Index(ln, " in goroutine "); i >= 0 {
			ln = ln[:i]
		}
		// File:line frames carry a "+0x..." code offset.
		if i := strings.Index(ln, " +0x"); i >= 0 {
			ln = ln[:i]
		}
		// Function-call frames print argument values (heap addresses,
		// struct dumps); replace the whole argument list with "(...)".
		// The list starts at the line's last "(" — method receivers like
		// "(*Kernel).Step" close their parens before the argument list.
		if !strings.HasPrefix(ln, "\t") && strings.HasSuffix(ln, ")") {
			if i := strings.LastIndex(ln, "("); i >= 0 && ln[i+1:] != ")" {
				ln = ln[:i] + "(...)"
			}
		}
		out = append(out, ln)
	}
	s := strings.Join(out, "\n")
	if len(s) > maxStackBytes {
		s = s[:maxStackBytes]
	}
	return s
}
