package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestNoMessageIsReadAfterItsRelease holds every holder of a message to
// the ownership rule (DESIGN.md §13, "Message ownership"): a handler,
// observer, interceptor or gate reads a message only during the call that
// hands it over, and only a queued delivery or a pending call's timeout
// keeps it longer, counted. Every target — the five committed ones and
// both scale targets on the benchmark's 50-node worlds — runs its reference
// execution and its first planner plans three times: as is, with no
// released message reused, and with every released message scribbled over
// and never reused. The second is the network as it was before it reused
// messages; the third makes anything that kept a message past its release
// read the scribble — a response to no call, a payload of no known type.
// All three must end with the same violations and state hash, and no
// message may be released twice. Beside the first plans go the first of
// every other kind the planner makes (a flaky link duplicates and reorders
// deliveries) and a delivery delayed and one dropped at a gate.
func TestNoMessageIsReadAfterItsRelease(t *testing.T) {
	const plansPerTarget = 4
	scale := workload.ScaleProfile{Racks: 10, NodesPerRack: 5}
	targets := append(workload.AllTargets(), workload.ScaleRackDrainTarget(scale), workload.ScaleReplaceTarget(scale))
	for _, target := range targets {
		t.Run(target.Name, func(t *testing.T) {
			ref, _ := core.ReferenceSeed(target, 1)
			for _, p := range ownershipPlans(ref, core.NewPlanner().Plans(target, ref), plansPerTarget) {
				reused, reusedViolations := core.TracePlanSeed(target, p, 1)
				for _, scribble := range []bool{false, true} {
					released := make(map[*sim.Message]bool)
					restore := sim.KeepReleased(func(m *sim.Message) {
						if released[m] {
							t.Errorf("plan %q: message #%d %s released twice", p.Describe(), m.Seq, m.Kind)
						}
						released[m] = true
						if scribble {
							sim.Scribble(m)
						}
					})
					got, gotViolations := core.TracePlanSeed(target, p, 1)
					restore()
					if len(released) == 0 {
						t.Fatalf("plan %q: no message was released; the check is vacuous", p.Describe())
					}
					mode := "kept"
					if scribble {
						mode = "scribbled over"
					}
					if g, w := got.StateHash(), reused.StateHash(); g != w {
						t.Errorf("plan %q: state hash %#016x with released messages %s, %#016x with them reused", p.Describe(), g, mode, w)
					}
					if !reflect.DeepEqual(gotViolations, reusedViolations) {
						t.Errorf("plan %q: violations %v with released messages %s, %v with them reused", p.Describe(), gotViolations, mode, reusedViolations)
					}
				}
			}
		})
	}
}

// ownershipPlans is the reference run, the first n of the planner's plans,
// the first plan of each other type among the rest, and a delay and a drop
// at a gate of the reference's first delivery to a component.
func ownershipPlans(ref *trace.Trace, plans []core.Plan, n int) []core.Plan {
	out := []core.Plan{core.NopPlan{}}
	seen := map[string]bool{}
	for i, p := range plans {
		typ := fmt.Sprintf("%T", p)
		if i < n || !seen[typ] {
			out = append(out, p)
		}
		seen[typ] = true
	}
	for _, d := range ref.Deliveries {
		if d.To == "admin" {
			continue
		}
		return append(out,
			core.DelayDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence, Delay: 30 * sim.Millisecond},
			core.DropDeliveryPlan{Victim: d.To, Kind: d.Kind, Name: d.Name, Type: d.EventType, Occurrence: d.Occurrence})
	}
	return out
}
