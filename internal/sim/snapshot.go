package sim

import (
	"fmt"
	"sort"
)

// This file is the simulation half of the prefix-checkpoint layer
// (internal/infra/snapshot.go holds the component half). A checkpoint
// captures the kernel's scheduling identity — virtual clock, sequence
// counter, step counter, RNG stream position, and the (tag, at, seq) of
// every pending event — plus the network's mutable routing state. It does
// NOT capture closures, and needs none: a component timer is armed through
// an Owner and is its tag, so a restored kernel re-inserts it, under its
// original sequence number, for the owner registered under the tag's name —
// the body it runs is the one function the original run would have run, and
// tie-breaking order in the forked run is byte-identical to a full replay.
//
// The contract that makes forking exact (see DESIGN.md, "Prefix
// checkpointing"):
//
//   - a snapshot is only legal at a quiescent instant: every pending
//     non-canceled event is tagged;
//   - a forked run re-applies the plan first (consuming the same sequence
//     band a full replay's Apply would), then replays the workload in
//     rehydration mode (burning the sequence numbers of pre-checkpoint
//     actions), then re-installs pending events shifted by the plan's
//     allocation count, and finally fast-forwards the sequence counter to
//     the prefix counter plus that same shift.

// CloneMap is what a component's clone() re-makes a map with: a fresh map
// holding m's entries, nil for nil. It assigns entry by entry into a map
// made at size, which the compiler routes to the runtime's assignment for
// the key type; maps.Clone (go 1.24) copies slots through the generic path,
// write barrier and all, and took 40 % longer over a 50-node world's
// informer caches (EXPERIMENTS.md, "State is one value").
func CloneMap[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return nil
	}
	out := make(M, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// PendingEvent describes one pending, tagged kernel event at capture time.
// Retired marks an event whose owner had retired (its component crashed):
// it is restored to come due, count as a step and run nothing, as it would
// have in the captured run.
type PendingEvent struct {
	At      Time
	Seq     uint64
	Tag     EventTag
	Retired bool
}

// KernelSnapshot is the kernel's scheduling identity at a checkpoint.
type KernelSnapshot struct {
	Now      Time
	Seq      uint64 // sequence counter at capture
	Steps    uint64 // events executed so far
	RNGDraws uint64 // raw 64-bit draws consumed from the seeded source
	Pending  []PendingEvent
	// rng is the random generator at capture, RNGDraws draws into its
	// stream: a restored kernel copies it. It is never written after the
	// capture.
	rng *lfg
}

// CaptureSnapshot captures the kernel's state if every pending event is
// tagged. It returns ok=false (and no snapshot) when an anonymous event is
// pending — the caller should advance virtual time slightly and retry, or
// abandon this checkpoint.
func (k *Kernel) CaptureSnapshot() (KernelSnapshot, bool) {
	pending := make([]PendingEvent, 0, len(k.heap)+1)
	anonymous := false
	k.each(func(e heapEntry) { // the tick is listed like any owner's event
		ev := &k.slots[e.slot]
		if ev.canceled || anonymous {
			return
		}
		tag := ev.tagOf()
		if *tag == (EventTag{}) {
			anonymous = true
			return
		}
		pending = append(pending, PendingEvent{At: e.at, Seq: e.seq, Tag: *tag,
			Retired: ev.owner != nil && ev.owner.retired})
	})
	if anonymous {
		return KernelSnapshot{}, false
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].At != pending[j].At {
			return pending[i].At < pending[j].At
		}
		return pending[i].Seq < pending[j].Seq
	})
	rng := k.src.gen
	return KernelSnapshot{
		Now:      k.now,
		Seq:      k.seq,
		Steps:    k.steps,
		RNGDraws: k.src.draws,
		Pending:  pending,
		rng:      &rng,
	}, true
}

// Seq returns the current event sequence counter.
func (k *Kernel) Seq() uint64 { return k.seq }

// RNGDraws returns how many raw 64-bit values have been drawn from the
// kernel's seeded random source.
func (k *Kernel) RNGDraws() uint64 { return k.src.draws }

// SetDefaultTag installs (or, with nil, removes) a tag applied to events
// scheduled through the untagged At/Schedule entry points. The campaign
// layer brackets the top-level workload invocation with it so workload
// timers are identifiable in snapshots.
func (k *Kernel) SetDefaultTag(tag *EventTag) { k.defaultTag = tag }

// BeginRehydrate puts the kernel in fork-time workload replay mode: until
// EndRehydrate, an At strictly before cutoff burns a sequence number but
// schedules nothing (the full-replay run fired that event inside the
// checkpointed prefix).
func (k *Kernel) BeginRehydrate(cutoff Time) {
	k.rehydrating = true
	k.rehydrateCutoff = cutoff
}

// EndRehydrate leaves rehydration mode.
func (k *Kernel) EndRehydrate() {
	k.rehydrating = false
	k.rehydrateCutoff = 0
}

// SetStrictPast enables (or disables) recording of attempts to schedule
// into the past. While enabled, the first At with t < now — or, in
// rehydration mode, before the cutoff, where it would otherwise burn
// silently — is remembered; StrictViolation returns it. A plan forked from
// a plan-free base is applied under strict mode: a violation means the
// plan has effects inside the checkpointed prefix and the fork must be
// abandoned in favour of a full replay.
func (k *Kernel) SetStrictPast(on bool) {
	k.strictPast = on
	if on {
		k.strictErr = ""
	}
}

// StrictViolation returns a description of the first schedule-into-the-past
// observed under strict mode, or "" if none.
func (k *Kernel) StrictViolation() string { return k.strictErr }

// NewRestoredKernel creates a kernel positioned where snap was captured:
// clock, steps executed, and the random stream, copied from the generator
// snap holds — no draw is replayed and no source is seeded. The sequence
// counter starts at 0; the restore orchestration sets it explicitly
// (SetSeq) around plan re-application.
func NewRestoredKernel(snap KernelSnapshot) *Kernel {
	k := newKernel(&source{gen: *snap.rng, draws: snap.RNGDraws})
	k.now = snap.Now
	k.steps = snap.Steps
	return k
}

// SetSeq overwrites the event sequence counter (restore path only).
func (k *Kernel) SetSeq(n uint64) { k.seq = n }

// RestorePending re-inserts a captured owner-dispatched event under the
// given sequence number, without touching the sequence counter, for the
// live owner registered under the tag's name (none, if the event was
// captured retired) — the observer's into the tick entry, every other one
// into the heap, in no lane. It fails,
// inserting nothing, when no such owner is registered or the event precedes
// the restored clock. Restore orchestration only.
func (k *Kernel) RestorePending(pe PendingEvent, seq uint64) error {
	o := retiredOwner
	if !pe.Retired {
		o = k.owners[pe.Tag.Owner]
	}
	switch {
	case o == nil:
		return fmt.Errorf("sim: restore pending event %v: no owner registered under that name", pe.Tag)
	case pe.At < k.now:
		return fmt.Errorf("sim: restore pending event %v into the past: at=%s now=%s", pe.Tag, pe.At, k.now)
	}
	k.place(pe.At, seq, &pe.Tag, o, 0)
	return nil
}

// NetworkSnapshot is the network's mutable routing state at a checkpoint.
// Registered handlers and observers are not part of it: the restored
// components re-register themselves.
type NetworkSnapshot struct {
	Seq       uint64
	Down      map[NodeID]bool
	Links     map[linkKey]linkState // by value: a snapshot shares no record with a live network
	Locations map[NodeID]Location
	Topo      TopologyLatency
	Stats     NetStats
}

// Snapshot captures the network's mutable state.
func (n *Network) Snapshot() NetworkSnapshot {
	s := NetworkSnapshot{
		Seq:       n.seq,
		Down:      make(map[NodeID]bool),
		Links:     make(map[linkKey]linkState, len(n.links)),
		Locations: make(map[NodeID]Location),
		Topo:      n.topo,
		Stats:     n.stats,
	}
	for id, ep := range n.nodes {
		if ep.down {
			s.Down[id] = true
		}
		if !ep.loc.IsZero() {
			s.Locations[id] = ep.loc
		}
	}
	for k, l := range n.links {
		s.Links[k] = l.linkState
	}
	return s
}

// RestoreRouting re-applies captured link, stream and down state to a
// network nothing has sent on or configured yet. A restore may ask which
// processes are down (World.Crashed) from here on: no later registration
// changes it.
func (n *Network) RestoreRouting(s NetworkSnapshot) {
	n.seq = s.Seq
	n.stats = s.Stats
	n.topo = s.Topo
	n.placed++
	for id, v := range s.Down {
		if v {
			n.endpoint(id).down = true
		}
	}
	for id, loc := range s.Locations {
		n.endpoint(id).loc = loc
	}
	recs := make([]link, len(s.Links)) // one allocation for every restored record
	i := 0
	for k, v := range s.Links {
		recs[i].linkState = v
		n.wire(k, &recs[i])
		i++
	}
}

// Timeout returns the client's configured call timeout.
func (c *RPCClient) Timeout() Duration { return c.timeout }

// NewRestoredWorld builds a world around a mid-run kernel: the kernel is
// positioned by NewRestoredKernel, the network's routing state — down flags
// included — is re-applied, and the process registry starts empty
// (components re-join, and a down one joins with its timer owner retired).
func NewRestoredWorld(cfg WorldConfig, ks KernelSnapshot, net NetworkSnapshot) *World {
	k := NewRestoredKernel(ks)
	w := &World{
		kernel: k,
		net:    NewNetwork(k, cfg.Latency, cfg.Jitter),
		procs:  make(map[NodeID]Process),
		timers: make(map[NodeID]*Timers),
	}
	w.net.RestoreRouting(net)
	return w
}
