package sim

import (
	"fmt"
	"sort"
)

// Process is a simulated component with a crash/restart lifecycle.
//
// Whether a process is down is the world's fact, recorded once (World.Crash,
// World.Restart): the network delivers nothing to it while it is, and the
// owner of the timers it joined with is retired before Crash runs and
// replaced before Restart runs. Crash drops the rest of the volatile state
// and resets the children that hold timers or calls of their own. Restart
// must bring the process back with only its durable state (whatever it
// persisted into the store / WAL); it typically re-lists from an upstream
// source — which is exactly where time-travel bugs live.
type Process interface {
	ID() NodeID
	Crash()
	Restart()
}

// Node is a process the network delivers to: what World.Join registers.
type Node interface {
	Process
	Handler
}

// World bundles a kernel, a network, and a registry of crashable processes.
// It is the unit the testing tool constructs per execution: one World per
// test plan, always from the same seed.
type World struct {
	kernel *Kernel
	net    *Network
	procs  map[NodeID]Process
	timers map[NodeID]*Timers
}

// WorldConfig configures a new World.
type WorldConfig struct {
	Seed    int64
	Latency Duration // base one-way network latency
	Jitter  Duration // uniform jitter in [0, Jitter)
}

// NewWorld creates a world with its own kernel and network.
func NewWorld(cfg WorldConfig) *World {
	k := NewKernel(cfg.Seed)
	return &World{
		kernel: k,
		net:    NewNetwork(k, cfg.Latency, cfg.Jitter),
		procs:  make(map[NodeID]Process),
		timers: make(map[NodeID]*Timers),
	}
}

// Kernel returns the world's kernel.
func (w *World) Kernel() *Kernel { return w.kernel }

// Network returns the world's network.
func (w *World) Network() *Network { return w.net }

// Now returns current virtual time.
func (w *World) Now() Time { return w.kernel.Now() }

// AddProcess registers p for fault injection by ID.
func (w *World) AddProcess(p Process) {
	w.procs[p.ID()] = p
}

// Timers is the owner of one process's timers as the world keeps it: a boot
// is its Owner (DESIGN.md §7, "the incarnation rule"), so World.Crash
// retires the current one and World.Restart registers the next under the
// process's ID. After arms under the current boot; while the process is
// down that boot is retired, and what it arms comes due and runs nothing.
type Timers struct{ boot *Owner }

// After arms fire(tag) under the current boot's owner (Owner.After).
func (t *Timers) After(d Duration, tag EventTag) Timer { return t.boot.After(d, tag) }

// Owner returns the current boot's owner: what a closure armed outside the
// owner keeps at arm time, to ask Retired when it runs.
func (t *Timers) Owner() *Owner { return t.boot }

// next registers the owner of the process's next boot.
func (t *Timers) next() { t.boot = t.boot.k.Own(t.boot.name, t.boot.fire) }

// Join registers p as node p.ID(): its handler on the network and its
// process for fault injection. With fire != nil it also registers the owner
// of p's timers, named p.ID(), and returns the handle p arms them through;
// from then on the world retires and replaces that owner with each crash and
// restart. A process the world records as down — restored from a snapshot
// taken while it was — joins with its owner retired, and Restart registers
// its first live one.
func (w *World) Join(p Node, fire func(EventTag)) *Timers {
	id := p.ID()
	w.net.Register(id, p)
	w.AddProcess(p)
	if fire == nil {
		return nil
	}
	t := &Timers{}
	if w.net.Down(id) {
		t.boot = &Owner{k: w.kernel, name: string(id), fire: fire, retired: true}
	} else {
		t.boot = w.kernel.Own(string(id), fire)
	}
	w.timers[id] = t
	return t
}

// Process looks up a registered process.
func (w *World) Process(id NodeID) (Process, bool) {
	p, ok := w.procs[id]
	return p, ok
}

// ProcessIDs returns all registered process IDs in sorted order.
func (w *World) ProcessIDs() []NodeID {
	ids := make([]NodeID, 0, len(w.procs))
	for id := range w.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Crash marks the process down on the network, retires the owner of its
// timers and invokes its Crash hook.
func (w *World) Crash(id NodeID) error {
	p, ok := w.procs[id]
	if !ok {
		return fmt.Errorf("sim: crash: unknown process %q", id)
	}
	if w.net.Down(id) {
		return nil
	}
	w.net.SetDown(id, true)
	if t := w.timers[id]; t != nil {
		t.boot.Retire()
	}
	p.Crash()
	return nil
}

// Restart brings a crashed process back up: the network delivers to it
// again, the owner of its next boot's timers is registered, and its Restart
// hook runs.
func (w *World) Restart(id NodeID) error {
	p, ok := w.procs[id]
	if !ok {
		return fmt.Errorf("sim: restart: unknown process %q", id)
	}
	if !w.net.Down(id) {
		return nil
	}
	w.net.SetDown(id, false)
	if t := w.timers[id]; t != nil {
		t.next()
	}
	p.Restart()
	return nil
}

// CrashFor crashes a process now and schedules its restart after d.
func (w *World) CrashFor(id NodeID, d Duration) error {
	if err := w.Crash(id); err != nil {
		return err
	}
	w.kernel.Schedule(d, func() { _ = w.Restart(id) })
	return nil
}

// Crashed reports whether id is currently down.
func (w *World) Crashed(id NodeID) bool { return w.net.Down(id) }
