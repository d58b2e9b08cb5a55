package sim

import "testing"

// node is a process the network delivers to, with the timer body it joins
// the world with: it counts what reaches it.
type node struct {
	crashableProc
	fired int
	got   int
}

func (p *node) HandleMessage(*Message) { p.got++ }
func (p *node) fire(EventTag)          { p.fired++ }

// TestRegisterKeepsDownFlag: the network's down flag is the one record of a
// crash, so registering a handler — a restored component joining, a
// replica taking over its raft node's ID — must not bring the node back.
func TestRegisterKeepsDownFlag(t *testing.T) {
	k, n, _, b := newTestNet(t)
	n.SetDown("b", true)
	n.Register("b", b)
	if !n.Down("b") {
		t.Fatal("Register cleared the down flag")
	}
	n.Send("a", "b", "rpc", 1)
	k.Drain()
	if len(b.got) != 0 || n.Stats().DownRx != 1 {
		t.Fatalf("a message reached the re-registered down node: got %d, DownRx %d", len(b.got), n.Stats().DownRx)
	}
}

// TestJoinDownProcessLeavesNoLiveOwner: a process restored while it was
// down joins with its owner retired — the name stays free — and the world's
// Restart registers exactly one live owner, which is the one its timers
// handle arms under.
func TestJoinDownProcessLeavesNoLiveOwner(t *testing.T) {
	ks, _ := NewKernel(1).CaptureSnapshot()
	w := NewRestoredWorld(WorldConfig{Seed: 1, Latency: Millisecond}, ks, NetworkSnapshot{Down: map[NodeID]bool{"p": true}})
	p := &node{crashableProc: crashableProc{id: "p"}}
	tm := w.Join(p, p.fire)
	if !w.Crashed("p") {
		t.Fatal("joining took the restored process out of the down set")
	}
	if !tm.Owner().Retired() || w.Kernel().owners["p"] != nil {
		t.Fatalf("a down process joined with a live owner (retired %v, registered %v)", tm.Owner().Retired(), w.Kernel().owners["p"] != nil)
	}
	tm.After(Millisecond, EventTag{Kind: "beat"})
	if err := w.Restart("p"); err != nil {
		t.Fatal(err)
	}
	live := w.Kernel().owners["p"]
	if live == nil || live != tm.Owner() || live.Retired() || p.restarts != 1 {
		t.Fatalf("Restart registered %v, the handle arms under %v, want the one live owner", live, tm.Owner())
	}
	tm.After(Millisecond, EventTag{Kind: "beat"})
	w.Kernel().Drain()
	if p.fired != 1 || w.Kernel().Steps() != 2 {
		t.Fatalf("fired %d in %d steps, want the live boot's one in 2", p.fired, w.Kernel().Steps())
	}
}

// TestCrashRetiresOwner: World.Crash retires the owner before the process's
// Crash hook, so a timer the boot armed before the crash comes due inert —
// a step that runs nothing — and a snapshot taken while it is pending says
// so; the restart's timers run again.
func TestCrashRetiresOwner(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1, Latency: Millisecond})
	p := &node{crashableProc: crashableProc{id: "p"}}
	tm := w.Join(p, p.fire)
	boot := tm.Owner()
	tm.After(10*Millisecond, EventTag{Kind: "beat"})
	w.Kernel().Run(Time(5 * Millisecond))
	if err := w.Crash("p"); err != nil {
		t.Fatal(err)
	}
	if !boot.Retired() || p.crashes != 1 {
		t.Fatalf("crash left the boot's owner live (retired %v, crashes %d)", boot.Retired(), p.crashes)
	}
	snap, ok := w.Kernel().CaptureSnapshot()
	if !ok || len(snap.Pending) != 1 || !snap.Pending[0].Retired {
		t.Fatalf("the pending beat captures as %+v, want one retired event", snap.Pending)
	}
	w.Kernel().Drain()
	if p.fired != 0 || w.Kernel().Steps() != 1 {
		t.Fatalf("the dead boot's beat fired %d times in %d steps, want an inert step", p.fired, w.Kernel().Steps())
	}
	if err := w.Restart("p"); err != nil {
		t.Fatal(err)
	}
	tm.After(Millisecond, EventTag{Kind: "beat"})
	w.Kernel().Drain()
	if p.fired != 1 {
		t.Fatalf("the restarted boot's beat fired %d times, want 1", p.fired)
	}
}

// TestSecondLiveOwnerOfAJoinedNamePanics: the owner a process joins with
// holds its name, so another registration under it — a second Join of a
// live process, or a Kernel.Own — is a bug the kernel refuses.
func TestSecondLiveOwnerOfAJoinedNamePanics(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1, Latency: Millisecond})
	p := &node{crashableProc: crashableProc{id: "p"}}
	w.Join(p, p.fire)
	for _, again := range []struct {
		name     string
		register func()
	}{
		{"Join", func() { w.Join(p, p.fire) }},
		{"Kernel.Own", func() { w.Kernel().Own("p", p.fire) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took the name of a live owner", again.name)
				}
			}()
			again.register()
		}()
	}
}
