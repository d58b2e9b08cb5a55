package core

import (
	"fmt"

	"repro/internal/infra"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Topology tells the planner what exists in the target cluster: which
// apiservers can be frozen, which components can be crashed, and which of
// those can be steered to a different upstream on restart.
type Topology struct {
	APIServers  []sim.NodeID
	Restartable []sim.NodeID
	Resteerable []sim.NodeID
}

// Target is one system-plus-workload under test: a deterministic cluster
// builder, a workload that schedules admin operations on the virtual
// clock, a run horizon, and the oracle whose violation constitutes
// "bug found".
type Target struct {
	// Name identifies the target bug (e.g. "k8s-59848").
	Name string
	// Bug is the oracle name whose violation counts as detection.
	Bug string
	// Build constructs a fresh cluster with the buggy configuration.
	Build func(seed int64) *infra.Cluster
	// Workload schedules the admin operations that exercise the system.
	Workload func(c *infra.Cluster)
	// Horizon is how long each execution runs (virtual time).
	Horizon sim.Duration
	// Topology describes the fault surface.
	Topology Topology
}

// Strategy generates an ordered list of perturbation plans for a target,
// optionally informed by a reference trace.
type Strategy interface {
	Name() string
	Plans(t Target, ref *trace.Trace) []Plan
}

// Execution is the outcome of running one plan against a target.
type Execution struct {
	// Plan and Seed name the run: the plan and the world seed. Only the
	// benchmark's staged runner sets them.
	Plan       Plan
	Seed       int64
	Violations []oracle.Violation
	Detected   bool // the target bug's oracle fired
	// Failed marks an execution whose harness run did not complete: the
	// plan (or the system under it) panicked. A failed execution detects
	// nothing, but must not take down the campaign (crash-safe execution).
	Failed bool
	// Hung marks an execution flagged by the event-budget watchdog: the
	// kernel exhausted its step budget before reaching the virtual-time
	// horizon — a livelocked plan (e.g. a zero-delay reschedule loop).
	Hung bool
	// Failure is the human-readable panic or watchdog report (plan ID,
	// panic value, truncated stack / steps-vs-horizon diagnosis).
	Failure string
}

// CampaignResult summarizes a bug-finding campaign.
type CampaignResult struct {
	Target     string
	Strategy   string
	PlansTotal int // plans the strategy generated
	// Executions counts every real cluster execution the campaign
	// performed: the reference run (it builds and runs a full cluster,
	// exactly like a plan execution) plus each plan execution up to and
	// including the detecting one. A campaign that detects on its very
	// first plan therefore reports Executions == 2 (reference + plan);
	// a campaign whose reference run already violates the oracle reports
	// Executions == 1.
	Executions int
	Detected   bool
	// DetectingPlan describes the first plan that triggered the bug.
	DetectingPlan  string
	FirstViolation *oracle.Violation
}

func (r CampaignResult) String() string {
	if r.Detected {
		return fmt.Sprintf("%-14s %-16s detected in %d/%d executions (%s)",
			r.Target, r.Strategy, r.Executions, r.PlansTotal, r.DetectingPlan)
	}
	return fmt.Sprintf("%-14s %-16s NOT detected in %d executions", r.Target, r.Strategy, r.Executions)
}

// replay is the one full-replay sequence every unforked execution in this
// package spells: build the seed's world, attach rec when the caller wants
// a trace, apply the plan, schedule the workload, run to the horizon.
func replay(t Target, p Plan, seed int64, rec *trace.Recorder) *infra.Cluster {
	c := t.Build(seed)
	if rec != nil {
		rec.Attach(c.World.Network(), c.Store.Store())
	}
	p.Apply(c)
	t.Workload(c)
	c.RunFor(t.Horizon)
	return c
}

// ReferenceSeed runs the target once unperturbed — a traced NopPlan —
// under an explicit world seed and returns its trace. It is the planning
// substrate and also a sanity check: a reference run that already violates
// the oracle makes the campaign meaningless. Multi-seed campaigns record
// one reference trace per seed so plan coordinates (occurrence counts,
// commit times) match the seed they will be replayed under — a seed-2
// campaign is an honest re-execution, not a replay of the seed-1
// reference.
func ReferenceSeed(t Target, seed int64) (*trace.Trace, []oracle.Violation) {
	return TracePlanSeed(t, NopPlan{}, seed)
}

// TracePlanSeed executes one plan under an explicit world seed with a
// recorder attached and returns the recorded trace plus the violations.
func TracePlanSeed(t Target, p Plan, seed int64) (*trace.Trace, []oracle.Violation) {
	rec := trace.NewRecorder()
	c := replay(t, p, seed, rec)
	return rec.T, c.Violations()
}

// RunPlanSeed executes one plan against a fresh instance of the target
// built with an explicit world seed, untraced.
func RunPlanSeed(t Target, p Plan, seed int64) Execution {
	c := replay(t, p, seed, nil)
	return Execution{
		Violations: c.Violations(),
		Detected:   c.Oracles.Violated(t.Bug),
	}
}
