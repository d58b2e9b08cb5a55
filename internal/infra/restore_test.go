package infra_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/controllers"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// restoreRow is one comparison of TestRestoredClusterContinuesIdentically:
// a target at a world seed, a fault laid over its workload (nil: none), and
// the instant at which the run is captured.
type restoreRow struct {
	label   string
	t       core.Target
	seed    int64
	fault   func(c *infra.Cluster)
	capture sim.Time
	// wantRetired names a kind of timer the capture must hold pending for an
	// owner that has since retired — the crashed incarnation's — and wantLive
	// one it must hold for a live owner, or the row compared nothing it was
	// written for. timerless names a component that arms no timer: the
	// capture must hold nothing of its.
	wantRetired, wantLive string
	timerless             sim.NodeID
}

// continueVsRestore runs the row twice over: the original execution is
// captured and left to run on, and a cluster restored from the capture the
// way campaign's forkFrom restores one — plan band, then workload, both
// rehydrated, then the pending events — runs beside it to the same horizon.
// It reports how many retired events the capture held.
func continueVsRestore(t *testing.T, r restoreRow) (retired int) {
	t.Helper()
	drive := func(c *infra.Cluster) {
		k := c.World.Kernel()
		ptag := sim.EventTag{Owner: "plan", Kind: "action"}
		k.SetDefaultTag(&ptag)
		if r.fault != nil {
			r.fault(c)
		}
		wtag := sim.EventTag{Owner: "workload", Kind: "action"}
		k.SetDefaultTag(&wtag)
		r.t.Workload(c)
		k.SetDefaultTag(nil)
	}
	c := r.t.Build(r.seed)
	k := c.World.Kernel()
	buildSeq, end := k.Seq(), k.Now().Add(r.t.Horizon)
	rec := trace.NewRecorder()
	rec.Attach(c.World.Network(), c.Store.Store())
	drive(c)
	k.Run(r.capture)
	var snap *infra.Snapshot
	for ok := false; !ok; k.RunFor(sim.Millisecond) {
		if k.Now() >= end {
			t.Fatalf("%s: no quiescent instant between %s and the horizon", r.label, r.capture)
		}
		if snap, ok = c.Capture(); ok {
			break
		}
	}
	found, live := r.wantRetired == "", r.wantLive == ""
	for _, pe := range snap.Kernel.Pending {
		if r.timerless != "" && pe.Tag.Owner == string(r.timerless) {
			t.Errorf("%s: captured at %s with %v pending: %s arms no timer", r.label, snap.Kernel.Now, pe.Tag, r.timerless)
		}
		if pe.Retired {
			retired++
			found = found || pe.Tag.Kind == r.wantRetired
		} else {
			live = live || pe.Tag.Kind == r.wantLive
		}
	}
	if !found || !live {
		t.Errorf("%s: captured at %s without a retired %q timer or a live %q timer pending: the row does not reach the case it names",
			r.label, snap.Kernel.Now, r.wantRetired, r.wantLive)
	}

	c2, err := snap.NewCluster()
	if err != nil {
		t.Fatalf("%s: restore: %v", r.label, err)
	}
	k2 := c2.World.Kernel()
	rec2 := trace.NewRecorderFor(rec.T.Fork())
	rec2.Attach(c2.World.Network(), c2.Store.Store())
	k2.SetSeq(buildSeq)
	k2.BeginRehydrate(snap.Kernel.Now)
	drive(c2)
	k2.EndRehydrate()
	if err := c2.InstallPending(snap.Kernel.Pending, buildSeq, 0); err != nil {
		t.Fatalf("%s: install pending: %v", r.label, err)
	}
	k2.SetSeq(snap.Kernel.Seq)

	// Both to the horizon, then on until the original's queue is one a
	// kernel snapshot can describe (no anonymous event pending).
	k.Run(end)
	final, ok := k.CaptureSnapshot()
	for ; !ok; final, ok = k.CaptureSnapshot() {
		k.RunFor(sim.Millisecond)
	}
	k2.Run(k.Now())
	final2, ok := k2.CaptureSnapshot()
	if !ok {
		t.Errorf("%s: the restored run ends with an anonymous event pending, the original does not", r.label)
	}
	if final.Steps != final2.Steps || final.Seq != final2.Seq || final.RNGDraws != final2.RNGDraws {
		t.Errorf("%s: continued: %d steps, seq %d, %d draws; restored at %s: %d steps, seq %d, %d draws",
			r.label, final.Steps, final.Seq, final.RNGDraws, snap.Kernel.Now, final2.Steps, final2.Seq, final2.RNGDraws)
	}
	t.Logf("%s: captured at %s with %d retired; %d steps, seq %d, %d draws", r.label, snap.Kernel.Now, retired, final.Steps, final.Seq, final.RNGDraws)
	if !reflect.DeepEqual(final.Pending, final2.Pending) {
		t.Errorf("%s: pending events differ at %s:\n continued %v\n restored  %v", r.label, k.Now(), final.Pending, final2.Pending)
	}
	if a, b := rec.T.StateHash(), rec2.T.StateHash(); a != b {
		t.Errorf("%s: state hash %016x continued, %016x restored", r.label, a, b)
	}
	if a, b := c.Violations(), c2.Violations(); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: violations differ:\n continued %v\n restored  %v", r.label, a, b)
	}
	if a, b := c.Oracles.Snapshot().Since, c2.Oracles.Snapshot().Since; !reflect.DeepEqual(a, b) {
		t.Errorf("%s: first-seen tables differ:\n continued %v\n restored  %v", r.label, a, b)
	}

	// All of the state, not six projections of it: on in lock-step to the
	// first instant both sides capture, and the two captures must be equal.
	again, ok := c.Capture()
	again2, ok2 := c2.Capture()
	for limit := k.Now().Add(sim.Second); !(ok && ok2); again, ok = c.Capture() {
		if k.Now() >= limit {
			t.Fatalf("%s: no instant within %s of the horizon at which both sides capture", r.label, sim.Second)
		}
		k.RunFor(sim.Millisecond)
		k2.Run(k.Now())
		again2, ok2 = c2.Capture()
	}
	va, vb := reflect.ValueOf(*again), reflect.ValueOf(*again2)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if name == "Opts" || reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			continue
		}
		t.Errorf("%s: captured again at %s, Snapshot.%s differs, continued vs restored: %s",
			r.label, k.Now(), name, firstDiff(name, va.Field(i), vb.Field(i)))
	}
	return retired
}

// firstDiff names the first place two values of one type differ, by the
// rules of reflect.DeepEqual (a nil map or slice is not an empty one), as a
// path of field names, map keys and indexes. It reads unexported fields, so
// it can say which field of a component's state moved.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		if a.Kind() == reflect.Pointer && a.Pointer() == b.Pointer() {
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries (nil %v) vs %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for it := a.MapRange(); it.Next(); {
			at := fmt.Sprintf("%s[%v]", path, it.Key())
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return at + ": only continued has it"
			}
			if d := firstDiff(at, it.Value(), bv); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && (a.IsNil() != b.IsNil() || a.Len() != b.Len()) {
			return fmt.Sprintf("%s: %d elements (nil %v) vs %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !a.Equal(b) {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	return ""
}

// TestRestoredClusterContinuesIdentically is the comparison DESIGN.md §7
// rests on and every other fork test only implies: a cluster restored from
// a capture must be the captured execution, event for event — the same
// number of steps, the same sequence counter and RNG position, the same
// events left pending — not merely an execution with the same verdict. The
// rows that matter are the ones a fork reaches after a crash: until its
// deadline, the crashed incarnation's last informer or work-queue timer is
// still in the queue, and it must come back as inert as it had become.
func TestRestoredClusterContinuesIdentically(t *testing.T) {
	const restartAfter = 100 * sim.Millisecond // CrashPlan's default
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }
	targets := append(workload.AllTargets(),
		workload.ScaleRackDrainTarget(workload.ScaleProfile{Racks: 10, NodesPerRack: 5}))
	var rows []restoreRow
	for _, tg := range targets {
		for _, after := range []sim.Duration{50 * sim.Millisecond, 300 * sim.Millisecond} {
			rows = append(rows, restoreRow{
				label: fmt.Sprintf("%s no fault, capture %s", tg.Name, ms(3000).Add(after)),
				t:     tg, seed: 1, capture: ms(3000).Add(after),
			})
			// Kubelet informers watch for 400 ms and everything else's for
			// 1 s, all from t=0: crashed 150 ms before a multiple of 400 ms,
			// a component is back up 50 ms before its old liveness timer is
			// due.
			for _, comp := range tg.Topology.Restartable {
				for _, crash := range []sim.Time{ms(2650), ms(3050), ms(3450)} {
					r := restoreRow{
						label: fmt.Sprintf("%s crash %s at %s, capture +%s", tg.Name, comp, crash, restartAfter+after),
						t:     tg, seed: 1,
						fault:   func(c *infra.Cluster) { core.CrashPlan{Component: comp, At: crash}.Apply(c) },
						capture: crash.Add(restartAfter + after),
					}
					if after < restartAfter {
						r.wantRetired = "inf-liveness"
					}
					rows = append(rows, r)
				}
			}
		}
	}
	// Captured while the component is down, one row per component type: the
	// capture holds the dead boot's own timer, retired, and the component's
	// owner comes back retired with it; the restart is a top-level action, so
	// the fork re-creates it by rehydration and the restored component boots
	// itself — registers its next owner under the name the retired one freed,
	// over a connection restored retired. A Restore that forgets to retire a
	// down component's owner panics there ("two live owners").
	everything := everythingTarget()
	for _, d := range []struct {
		tg      core.Target
		comp    sim.NodeID
		crash   sim.Time
		retired string // "": the component arms no timer
	}{
		{workload.Target59848(), kubelet.NodeID("k1"), ms(3055), "heartbeat"},
		{workload.Target56261(), scheduler.ID, ms(3055), "inf-liveness"}, // no timer of its own: its connection's
		{workload.Target59848(), infra.StoreID, ms(3055), ""},
		{workload.Target59848(), infra.APIServerID(0), ms(3055), "resync"},
		{everything, controllers.VolumeControllerID, ms(3055), "poll"},
		{everything, cassandra.OperatorID, ms(3055), "resync"},
		// The operator's two one-shot timers, mid-decommission: the scale-down
		// lands at 4 s, the drain is pending from 4.017 s and the wait for the
		// pod to go from 4.122 s to 4.147 s.
		{workload.TargetCass398(), cassandra.OperatorID, ms(4050), "drain"},
		{workload.TargetCass398(), cassandra.OperatorID, ms(4125), "awaitgone"},
	} {
		rows = append(rows, restoreRow{
			label: fmt.Sprintf("%s captured with %s down since %s", d.tg.Name, d.comp, d.crash),
			t:     d.tg, seed: 1,
			fault: func(c *infra.Cluster) {
				c.World.Kernel().At(d.crash, func() { _ = c.World.Crash(d.comp) })
				c.World.Kernel().At(d.crash.Add(restartAfter), func() { _ = c.World.Restart(d.comp) })
			},
			capture:     d.crash.Add(5 * sim.Millisecond),
			wantRetired: d.retired,
		})
		if d.retired == "" {
			rows[len(rows)-1].timerless = d.comp
		}
	}
	// A work-queue timer across the crash: with no node to place it on, the
	// scheduler puts a pod back every 50 ms, so a scheduler that is down
	// for 10 ms comes back while its old queue's addafter is still pending.
	stuck := workload.Target56261()
	stuck.Name = "k8s-56261 unschedulable"
	stuck.Workload = func(c *infra.Cluster) {
		k := c.World.Kernel()
		k.At(ms(500), func() {
			_ = c.World.Crash(kubelet.NodeID("n1"))
			_ = c.World.Crash(kubelet.NodeID("n2"))
			c.Admin.DeleteNode("n1", nil)
			c.Admin.DeleteNode("n2", nil)
		})
		k.At(ms(1000), func() { c.Admin.CreatePod("job-1", "", "v1", nil) })
	}
	stuck.Horizon = 4 * sim.Second
	for _, crash := range []sim.Time{ms(2000), ms(2040), ms(2080)} {
		rows = append(rows, restoreRow{
			label: fmt.Sprintf("%s crash scheduler at %s for 10 ms", stuck.Name, crash),
			t:     stuck, seed: 1,
			fault: func(c *infra.Cluster) {
				core.CrashPlan{Component: scheduler.ID, At: crash, RestartDelay: 10 * sim.Millisecond}.Apply(c)
			},
			capture:     crash.Add(15 * sim.Millisecond),
			wantRetired: "addafter",
		})
	}
	// A key in the queue across the capture: the 2.025281 s addafter has put
	// job-1 back and its process timer is due a millisecond later, and in
	// between a watch push delivered a second time (links may duplicate) asks
	// for the same pod again. A restored queue that lost track of what it
	// holds takes the pod twice.
	rows = append(rows, restoreRow{
		label: stuck.Name + " captured with job-1 queued, then a duplicate push",
		t:     stuck, seed: 1,
		fault: func(c *infra.Cluster) {
			c.World.Kernel().At(ms(2026).Add(100*sim.Microsecond), func() {
				inf := c.Scheduler.Conn().InformerFor(cluster.KindPod)
				pod, _ := inf.Get("job-1")
				c.Scheduler.HandleMessage(&sim.Message{Payload: &apiserver.WatchPushMsg{SubID: inf.SubID(),
					Events: []apiserver.WatchEvent{{Type: apiserver.Modified, Object: pod}}}})
			})
		},
		capture:  ms(2026),
		wantLive: "process",
	})
	// World seeds beyond 1, on the rows the defect was found on.
	for _, seed := range []int64{1021, 4060} {
		rows = append(rows, restoreRow{
			label: fmt.Sprintf("k8s-59848 seed %d crash kubelet-k1 at %s", seed, ms(3050)),
			t:     workload.Target59848(), seed: seed,
			fault:       func(c *infra.Cluster) { core.CrashPlan{Component: kubelet.NodeID("k1"), At: ms(3050)}.Apply(c) },
			capture:     ms(3200),
			wantRetired: "inf-liveness",
		})
	}
	withRetired := 0
	for _, r := range rows {
		if continueVsRestore(t, r) > 0 {
			withRetired++
		}
	}
	t.Logf("%d rows, %d captured with a retired timer pending", len(rows), withRetired)
}
