package infra_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// downDeliveries observes every delivery and counts those whose receiver
// the world records as down at the instant its handler is about to run.
type downDeliveries struct {
	w *sim.World
	n int
}

func (o *downDeliveries) OnSend(*sim.Message) {}
func (o *downDeliveries) OnDeliver(m *sim.Message) {
	if o.w.Crashed(m.To) {
		o.n++
	}
}
func (o *downDeliveries) OnDrop(*sim.Message, string) {}

// TestNoDeliveryToADownProcess: no component asks whether it is down when a
// message arrives, because the network drops every message to a down
// receiver before any handler runs (Network.deliver, DownRx). Over every
// target and the everything-on cluster, each process is crashed by a
// CrashPlan and by a TimeTravelPlan onto a frozen apiserver, and an observer
// counts the deliveries that reached a process the world says is down:
// there must be none, while DownRx shows that messages were sent to one.
func TestNoDeliveryToADownProcess(t *testing.T) {
	const crashAt = sim.Time(1500 * sim.Millisecond)
	for _, tg := range append(workload.AllTargets(), everythingTarget()) {
		var downRx uint64
		base := tg.Build(1)
		stale := base.APIs[len(base.APIs)-1].ID()
		for _, id := range base.World.ProcessIDs() {
			for _, fault := range []core.Plan{
				core.CrashPlan{Component: id, At: crashAt, RestartDelay: 600 * sim.Millisecond},
				core.TimeTravelPlan{Component: id, StaleAPI: stale, FreezeAt: crashAt - sim.Time(500*sim.Millisecond), CrashAt: crashAt,
					RestartDelay: 300 * sim.Millisecond, HealAt: crashAt.Add(sim.Second)},
			} {
				c := tg.Build(1)
				tg.Workload(c)
				fault.Apply(c)
				o := &downDeliveries{w: c.World}
				c.World.Network().AddObserver(o)
				c.World.Kernel().Run(crashAt.Add(3 * sim.Second))
				if o.n > 0 {
					t.Errorf("%s, %s: %d messages delivered to a down process", tg.Name, fault.Describe(), o.n)
				}
				downRx += c.World.Network().Stats().DownRx
			}
		}
		if downRx == 0 {
			t.Errorf("%s: no message was ever sent to a down process, so the count above proves nothing", tg.Name)
		}
		t.Logf("%s: %d messages dropped at a down receiver", tg.Name, downRx)
	}
}
