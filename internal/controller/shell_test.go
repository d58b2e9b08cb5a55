package controller_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/infra"
	"repro/internal/sim"
)

// toy is a whole operator-shaped component: one informer with a handler, a
// work queue, one periodic timer, one volatile map — and no line of
// lifecycle code. Everything TestShell* asks of it is the shell's doing.
type toy struct {
	controller.Shell
	pods *client.Informer
	toyState
}

type toyState struct {
	seen       map[string]bool // volatile: the pods this boot was told of
	reconciled []string
	beats      int
}

func (s toyState) clone() toyState {
	s.seen, s.reconciled = sim.CloneMap(s.seen), slices.Clone(s.reconciled)
	return s
}

const (
	toyID     sim.NodeID = "toy"
	toyPeriod            = 100 * sim.Millisecond
)

func (t *toy) spec() controller.Spec {
	note := func(o *cluster.Object) { t.seen[o.Meta.Name] = true; t.Queue().Add(o.Meta.Name) }
	return controller.Spec{
		ID:       toyID,
		Upstream: func() (sim.NodeID, sim.Duration) { return infra.APIServerID(0), 200 * sim.Millisecond },
		Informers: []controller.InformerSpec{{Into: &t.pods, Kind: cluster.KindPod, Cfg: client.InformerConfig{WatchTimeout: sim.Second},
			Handler: func() client.EventHandler {
				return client.HandlerFuncs{AddFunc: note, UpdateFunc: func(_, o *cluster.Object) { note(o) }}
			}}},
		Reconcile: func(key string) (controller.Result, error) {
			t.reconciled = append(t.reconciled, key)
			return controller.Result{}, nil
		},
		Fire: func(sim.EventTag) {
			t.beats++
			t.Queue().Add("beat")
			t.After(toyPeriod, sim.EventTag{Kind: "beat"})
		},
		Connected: func() { t.Conn().Create(cluster.NewNode("toy", "toy-uid", cluster.NodeSpec{}), nil) },
		Booted:    func() { t.After(toyPeriod, sim.EventTag{Kind: "beat"}) },
		Crashed:   func() { t.seen = map[string]bool{} },
	}
}

// toyWorld is a store, an apiserver, the admin client and the toy.
type toyWorld struct {
	c   *infra.Cluster
	toy *toy
}

func newToyWorld() *toyWorld {
	c := infra.New(infra.Options{Seed: 1, NumAPIServers: 1})
	t := &toy{toyState: toyState{seen: map[string]bool{}}}
	t.Start(c.World, t, t.spec())
	return &toyWorld{c, t}
}

// toyCapture is the world at one instant: the cluster's snapshot, which
// carries every pending event, the toy's included, and the toy's own.
type toyCapture struct {
	cluster *infra.Snapshot
	state   toyState
	shell   controller.ShellSnapshot
}

func (w *toyWorld) capture() (*toyCapture, bool) {
	if !w.toy.Conn().Quiescent() {
		return nil, false
	}
	cs, ok := w.c.Capture()
	if !ok {
		return nil, false
	}
	return &toyCapture{cs, w.toy.toyState.clone(), w.toy.Shell.Snapshot()}, true
}

func (cp *toyCapture) restore(t *testing.T) *toyWorld {
	c, err := cp.cluster.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	ty := &toy{toyState: cp.state.clone()}
	ty.Shell.Restore(c.World, ty, ty.spec(), cp.shell)
	return &toyWorld{c, ty}
}

// live counts the pending events of one (owner, kind) whose owner has not
// retired, at the first instant at or after until with every pending event
// tagged.
func (w *toyWorld) live(t *testing.T, until sim.Time, owner, kind string) (n int) {
	t.Helper()
	k := w.c.World.Kernel()
	k.Run(until)
	snap, ok := k.CaptureSnapshot()
	for ; !ok; snap, ok = k.CaptureSnapshot() {
		k.RunFor(sim.Millisecond)
	}
	for _, pe := range snap.Pending {
		if pe.Tag.Owner == owner && pe.Tag.Kind == kind && !pe.Retired {
			n++
		}
	}
	return n
}

func ms(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

// TestShellBootOrder pins the two orders a boot promises: what the
// component sends on connecting goes out before the first list, and its own
// first timer is armed after the informers have started.
func TestShellBootOrder(t *testing.T) {
	c := infra.New(infra.Options{Seed: 1, NumAPIServers: 1})
	var sent sentKinds
	c.World.Network().AddObserver(&sent)
	ty := &toy{toyState: toyState{seen: map[string]bool{}}}
	ty.Start(c.World, ty, ty.spec())
	if want := []string{"rpc-req:" + apiserver.MethodCreate.Name, "rpc-req:" + apiserver.MethodList.Name}; !slices.Equal([]string(sent), want) {
		t.Errorf("a boot sent %v, want %v: Connected runs on the new connection before any informer lists", sent, want)
	}
	// The boot's calls are out, their timeouts closures: on to the first
	// instant the queue can be read. Both timers are still pending then.
	k := c.World.Kernel()
	snap, ok := k.CaptureSnapshot()
	for ; !ok; snap, ok = k.CaptureSnapshot() {
		k.RunFor(sim.Millisecond)
	}
	var beat, liveness uint64
	for _, pe := range snap.Pending {
		switch pe.Tag.Kind {
		case "beat":
			beat = pe.Seq
		case "inf-liveness":
			if pe.Tag.Owner == string(toyID)+"/informers" {
				liveness = pe.Seq
			}
		}
	}
	if beat == 0 || liveness == 0 || beat < liveness {
		t.Errorf("beat armed at seq %d, the informer's liveness at %d: Booted runs after every informer's Run", beat, liveness)
	}
}

// sentKinds records the kind of every message sent.
type sentKinds []string

func (s *sentKinds) OnSend(m *sim.Message)     { *s = append(*s, m.Kind) }
func (*sentKinds) OnDeliver(*sim.Message)      {}
func (*sentKinds) OnDrop(*sim.Message, string) {}

// TestShellOneLiveChainAfterRestart crashes the toy for less than, about,
// and more than its timer's period: two seconds after the restart its own
// periodic timer and its informer's liveness timer each run as exactly one
// chain, the one the live boot armed.
func TestShellOneLiveChainAfterRestart(t *testing.T) {
	const crashAt = sim.Time(1500*sim.Millisecond + sim.Millisecond/2)
	for _, d := range []sim.Duration{sim.Millisecond, toyPeriod - sim.Millisecond, toyPeriod + sim.Millisecond, 600 * sim.Millisecond} {
		w := newToyWorld()
		k := w.c.World.Kernel()
		k.At(crashAt, func() { _ = w.c.World.Crash(toyID) })
		k.At(crashAt.Add(d), func() { _ = w.c.World.Restart(toyID) })
		at := crashAt.Add(d + 2*sim.Second)
		if n := w.live(t, at, string(toyID), "beat"); n != 1 {
			t.Errorf("down for %s: %d live beat chains, want 1", d, n)
		}
		if n := w.live(t, at, string(toyID)+"/informers", "inf-liveness"); n != 1 {
			t.Errorf("down for %s: %d live inf-liveness chains, want 1", d, n)
		}
	}
}

// TestShellDeadBootReachesNothing: a crash forgets the volatile state and
// hands the informer pointers back, a watch push addressed to the dead
// boot's subscription finds no informer, and the response to a call the
// dead boot made, arriving after the restart, runs no callback.
func TestShellDeadBootReachesNothing(t *testing.T) {
	w := newToyWorld()
	k := w.c.World.Kernel()
	w.c.Admin.CreatePod("p1", "n1", "v1", nil)
	k.RunFor(500 * sim.Millisecond)
	if !w.toy.seen["p1"] || !slices.Contains(w.toy.reconciled, "p1") {
		t.Fatalf("the toy never saw p1: seen %v, reconciled %v", w.toy.seen, w.toy.reconciled)
	}
	pod, _ := w.toy.pods.Get("p1")
	push := &sim.Message{Payload: &apiserver.WatchPushMsg{SubID: w.toy.pods.SubID(),
		Events: []apiserver.WatchEvent{{Type: apiserver.Modified, Object: pod, Revision: pod.Meta.ResourceVersion + 1}}}}
	answered := false
	w.toy.Conn().Get(cluster.KindPod, "p1", false, func(*cluster.Object, bool, error) { answered = true })
	dead := w.toy.Conn()

	_ = w.c.World.Crash(toyID)
	if len(w.toy.seen) != 0 || w.toy.pods != nil {
		t.Errorf("after the crash the toy still holds seen %v and informer %p", w.toy.seen, w.toy.pods)
	}
	if !dead.Retired() || w.toy.Queue().Len() != 0 {
		t.Errorf("after the crash the connection is retired: %v, and the queue holds %d keys", dead.Retired(), w.toy.Queue().Len())
	}
	w.toy.HandleMessage(push)
	w.toy.Queue().Add("p1")
	if len(w.toy.seen) != 0 || w.toy.Queue().Len() != 0 {
		t.Errorf("a push to the dead boot reached its handler (seen %v) or its queue took a key (%d)", w.toy.seen, w.toy.Queue().Len())
	}
	k.RunFor(sim.Millisecond) // the response is still on its way
	_ = w.c.World.Restart(toyID)
	k.RunFor(500 * sim.Millisecond)
	if answered {
		t.Error("the dead boot's Get was answered to the live one")
	}
	if !w.toy.seen["p1"] || w.toy.pods == nil || w.toy.Conn() == dead {
		t.Errorf("the restart made no new boot: seen %v, informer %p", w.toy.seen, w.toy.pods)
	}
}

// TestShellRestoredTwinContinuesIdentically captures the toy running, down,
// and with a key in its queue, restores a twin the way campaign's forkFrom
// does, and runs both on: the same steps, sequence numbers and RNG draws,
// the same events left pending, the same state and the same cache. The twin
// captured down restarts after the restore, which panics ("two live
// owners") if a restored shell leaves a dead boot's owner live.
func TestShellRestoredTwinContinuesIdentically(t *testing.T) {
	const horizon = 4 * sim.Second
	drive := func(crash sim.Time) func(w *toyWorld) {
		return func(w *toyWorld) {
			k := w.c.World.Kernel()
			tag := sim.EventTag{Owner: "workload", Kind: "action"}
			k.SetDefaultTag(&tag)
			defer k.SetDefaultTag(nil)
			for i, at := range []sim.Time{ms(400), ms(1300), ms(2600), ms(3300)} {
				k.At(at, func() { w.c.Admin.CreatePod(fmt.Sprintf("p%d", i), "n1", "v1", nil) })
			}
			if crash > 0 {
				k.At(crash, func() { _ = w.c.World.Crash(toyID) })
				k.At(crash.Add(100*sim.Millisecond), func() { _ = w.c.World.Restart(toyID) })
			}
		}
	}
	for _, row := range []struct {
		name    string
		drive   func(*toyWorld)
		capture sim.Time
		reached func(*toyWorld, *toyCapture) bool
	}{
		{"running", drive(0), ms(2000), func(w *toyWorld, _ *toyCapture) bool { return w.toy.pods.Len() == 2 }},
		{"down", drive(ms(2055)), ms(2060), func(_ *toyWorld, cp *toyCapture) bool { return cp.cluster.Net.Down[toyID] }},
		{"restarted, the dead boot's timers pending", drive(ms(1850)), ms(2000), func(_ *toyWorld, cp *toyCapture) bool {
			return slices.ContainsFunc(cp.cluster.Kernel.Pending, func(pe sim.PendingEvent) bool { return pe.Retired && pe.Tag.Kind == "inf-liveness" })
		}},
		{"a key queued", drive(0), 0, func(w *toyWorld, _ *toyCapture) bool { return w.toy.Queue().Len() == 1 }},
	} {
		w := newToyWorld()
		k := w.c.World.Kernel()
		buildSeq, end := k.Seq(), k.Now().Add(horizon)
		row.drive(w)
		var cp *toyCapture
		if row.capture > 0 {
			k.Run(row.capture)
			for ok := false; !ok; k.RunFor(sim.Millisecond) {
				if cp, ok = w.capture(); ok {
					break
				}
			}
		} else {
			// The beat puts its key in the queue and the queue takes it out a
			// millisecond later: capture in between. (The beat at 2.1 s: on
			// the half second the apiserver has a call out to the store.)
			for k.Run(ms(2050)); w.toy.Queue().Len() == 0; k.Step() {
			}
			cp, _ = w.capture()
		}
		if cp == nil || !row.reached(w, cp) {
			t.Errorf("%s: the capture at %s does not reach the case the row names", row.name, k.Now())
			continue
		}
		w2 := cp.restore(t)
		if back := w2.toy.Shell.Snapshot(); !reflect.DeepEqual(cp.shell, back) {
			t.Errorf("%s: the restored shell captures as %+v, and was restored from %+v", row.name, back, cp.shell)
		}
		k2 := w2.c.World.Kernel()
		k2.SetSeq(buildSeq)
		k2.BeginRehydrate(cp.cluster.Kernel.Now)
		row.drive(w2)
		k2.EndRehydrate()
		if err := w2.c.InstallPending(cp.cluster.Kernel.Pending, buildSeq, 0); err != nil {
			t.Fatalf("%s: install pending: %v", row.name, err)
		}
		k2.SetSeq(cp.cluster.Kernel.Seq)
		if w.toy.Queue().Len() > 0 {
			// Asked for again while queued: a restored queue that lost track
			// of what it holds takes the key twice.
			w.toy.Queue().Add("beat")
			w2.toy.Queue().Add("beat")
		}

		k.Run(end)
		final, ok := w.capture()
		for ; !ok; final, ok = w.capture() {
			k.RunFor(sim.Millisecond)
		}
		k2.Run(k.Now())
		final2, ok := w2.capture()
		if !ok {
			t.Fatalf("%s: at %s the continued run captures and the restored one does not", row.name, k.Now())
		}
		a, b := final.cluster.Kernel, final2.cluster.Kernel
		if a.Steps != b.Steps || a.Seq != b.Seq || a.RNGDraws != b.RNGDraws {
			t.Errorf("%s: continued: %d steps, seq %d, %d draws; restored at %s: %d steps, seq %d, %d draws",
				row.name, a.Steps, a.Seq, a.RNGDraws, cp.cluster.Kernel.Now, b.Steps, b.Seq, b.RNGDraws)
		}
		if !reflect.DeepEqual(a.Pending, b.Pending) {
			t.Errorf("%s: pending events differ:\n continued %v\n restored  %v", row.name, a.Pending, b.Pending)
		}
		if !reflect.DeepEqual(final.state, final2.state) {
			t.Errorf("%s: state differs:\n continued %+v\n restored  %+v", row.name, final.state, final2.state)
		}
		// The shell's snapshot holds the cache, the connection's and the
		// queue's state whole.
		if !reflect.DeepEqual(final.shell, final2.shell) {
			t.Errorf("%s: shell snapshots differ:\n continued %+v\n restored  %+v", row.name, final.shell, final2.shell)
		}
		if len(final.state.reconciled) < 8 || final.state.beats < 30 || w.toy.pods.Len() != 4 {
			t.Errorf("%s: the run exercised little: %d reconciles, %d beats, %d cached", row.name,
				len(final.state.reconciled), final.state.beats, w.toy.pods.Len())
		}
	}
}

// bare declares nothing but a connection, as the region manager does.
type bare struct{ controller.Shell }

// TestShellWithoutTimersOwnsNothing: a component with no Fire registers no
// owner — the name stays free — and still crashes, restarts and restores.
func TestShellWithoutTimersOwnsNothing(t *testing.T) {
	c := infra.New(infra.Options{Seed: 1, NumAPIServers: 1})
	spec := controller.Spec{ID: "bare", Upstream: func() (sim.NodeID, sim.Duration) { return infra.APIServerID(0), sim.Second }}
	b := &bare{}
	b.Start(c.World, b, spec)
	_ = c.World.Crash("bare")
	_ = c.World.Restart("bare")
	c.World.Kernel().Own("bare", func(sim.EventTag) {}) // panics if the shell holds the name
	if p, _ := c.World.Process("bare"); p != sim.Process(b) {
		t.Errorf("the world knows %T as the process, want the component: what else it implements is found on it", p)
	}
}

// TestShellRefusesTwoInformersOfOneKind: Conn.InformerFor finds a restored
// informer by kind, so a declaration with two of one kind is refused when it
// is made, by the component's name.
func TestShellRefusesTwoInformersOfOneKind(t *testing.T) {
	c := infra.New(infra.Options{Seed: 1, NumAPIServers: 1})
	var a, b *client.Informer
	defer func() {
		if r := recover(); fmt.Sprint(r) != "controller: twice declares two informers of kind pods" {
			t.Errorf("declaring two pod informers: recovered %v", r)
		}
	}()
	x := &bare{}
	x.Start(c.World, x, controller.Spec{ID: "twice", Upstream: func() (sim.NodeID, sim.Duration) { return infra.APIServerID(0), sim.Second },
		Informers: []controller.InformerSpec{{Into: &a, Kind: cluster.KindPod}, {Into: &b, Kind: cluster.KindPod}}})
}
