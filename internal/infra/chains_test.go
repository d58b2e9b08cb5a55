package infra_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/operators/cassandra"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chain names a timer that re-arms itself from its own body: one pending
// event at every instant for as long as its owner lives. An informer's two
// are counted per connection, since a boot numbers its subscriptions anew.
type chain struct{ owner, kind string }

// ownPeriod is the period of a process's fastest periodic timer of its own,
// by the defaults infra.New builds it with: what "just under" and "just
// over" are measured against. The store arms none; its crashes are measured
// against the default.
func ownPeriod(id sim.NodeID) sim.Duration {
	switch {
	case strings.HasPrefix(string(id), "api-"):
		return 500 * sim.Millisecond // resync
	case id == cassandra.OperatorID:
		return 200 * sim.Millisecond // resync
	}
	return 100 * sim.Millisecond // the kubelet's sync, the volume controller's poll
}

// liveChains runs the cluster to the first instant at or after until whose
// queue a kernel snapshot can describe, and counts the live — pending, not
// retired — events of every periodic kind.
func liveChains(t *testing.T, label string, k *sim.Kernel, until sim.Time) map[chain]int {
	t.Helper()
	k.Run(until)
	snap, ok := k.CaptureSnapshot()
	for limit := until.Add(5 * sim.Second); !ok; snap, ok = k.CaptureSnapshot() {
		if k.Now() >= limit {
			t.Fatalf("%s: no instant within %s of %s with every pending event tagged", label, 5*sim.Second, until)
		}
		k.RunFor(sim.Millisecond)
	}
	live := make(map[chain]int)
	for _, pe := range snap.Pending {
		switch pe.Tag.Kind {
		case "resync", "heartbeat", "sync", "poll", "check", "tick", "inf-liveness", "inf-relist":
			if !pe.Retired {
				live[chain{pe.Tag.Owner, pe.Tag.Kind}]++
			}
		}
	}
	return live
}

// TestOneLiveChainPerPeriodicTimer is the gate on the incarnation rule
// (DESIGN.md §7): whatever process is crashed, and for however long — a
// restart that beats the dead boot's timer to its deadline, or loses to it
// by a millisecond — two seconds after the restart every periodic timer in
// the cluster runs as exactly one chain, the one the live boot armed. A
// component whose crash hook does not retire its owner runs two from the
// day it is crashed for less than its period; one whose restart does not
// register the next runs none.
func TestOneLiveChainPerPeriodicTimer(t *testing.T) {
	// Every chain started at 0 and every period divides 1.5 s or leaves it
	// mid-period, so half a millisecond later each dead boot's timer is due a
	// period, less that half, after the crash: "just under" restarts half a
	// millisecond before it fires and "just over" half a millisecond after.
	const crashAt = sim.Time(1500*sim.Millisecond + sim.Millisecond/2)
	for _, tg := range append(workload.AllTargets(), everythingTarget()) {
		// No workload crashes anything, so which chains run is a fact of the
		// cluster, not of the instant: the never-crashed run says what to want.
		build := func(fault core.Plan) *infra.Cluster {
			c := tg.Build(1)
			tag := sim.EventTag{Owner: "workload", Kind: "action"}
			c.World.Kernel().SetDefaultTag(&tag) // the workload's timers are not what a capture waits out
			tg.Workload(c)
			if fault != nil {
				fault.Apply(c)
			}
			c.World.Kernel().SetDefaultTag(nil)
			return c
		}
		base := build(nil)
		want := liveChains(t, tg.Name+", never crashed", base.World.Kernel(), crashAt)
		for ch, n := range want {
			if !strings.HasPrefix(ch.kind, "inf-") && n != 1 {
				t.Fatalf("%s: never crashed, %s runs %d chains of %s", tg.Name, ch.owner, n, ch.kind)
			}
		}
		rows := 0
		for _, id := range base.World.ProcessIDs() {
			if base.World.Crashed(id) {
				continue // the workload took it down for good: a restart is not its story
			}
			p := ownPeriod(id)
			for _, d := range []sim.Duration{sim.Millisecond, 10 * sim.Millisecond, p - sim.Millisecond, p + sim.Millisecond, 600 * sim.Millisecond} {
				label := fmt.Sprintf("%s, %s down for %s", tg.Name, id, d)
				c := build(core.CrashPlan{Component: id, At: crashAt, RestartDelay: d})
				got := liveChains(t, label, c.World.Kernel(), crashAt.Add(d+2*sim.Second))
				for ch := range got {
					if _, ok := want[ch]; !ok {
						want[ch] = 0
					}
				}
				for ch, n := range want {
					if got[ch] != n {
						t.Errorf("%s: at %s %s has %d live %s pending, want %d", label, c.World.Now(), ch.owner, got[ch], ch.kind, n)
					}
				}
				rows++
			}
		}
		t.Logf("%s: %d rows", tg.Name, rows)
	}
}
