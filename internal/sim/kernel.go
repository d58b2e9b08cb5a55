// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every component of the simulated infrastructure (store nodes, apiservers,
// kubelets, schedulers, controllers) is an actor driven by a single Kernel.
// Virtual time only advances when the kernel dequeues the next scheduled
// event, and ties are broken by a monotonically increasing sequence number,
// so a simulation run is a pure function of its inputs (topology, workload,
// seed, perturbation plan). That determinism is what makes the
// partial-history testing tool replayable: a plan that triggered a bug can
// be re-executed and yields the identical trace.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration units (virtual time).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
}

func (d Duration) String() string {
	return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
}

// Timer is a handle to a scheduled callback: a claim on one generation of
// one kernel event slot. Slots are recycled, so the handle carries the
// generation it was issued for and answers false once the slot has moved on
// (fired, or released after a cancel), whoever occupies it now. The zero value
// is inert: Cancel and Pending report false. The generation is 64 bits wide
// and grows by one per release, so it cannot wrap within a run.
type Timer struct {
	k    *Kernel
	slot uint32
	gen  uint64
}

// live returns the timer's event if it is still the slot's occupant and has
// not been canceled. The pointer must not be held across a call that can
// schedule (the slot array may move).
func (t Timer) live() *event {
	if t.k == nil {
		return nil
	}
	ev := &t.k.slots[t.slot]
	if ev.gen != t.gen || ev.canceled {
		return nil
	}
	return ev
}

// Cancel prevents the timer's callback from running. Canceling an
// already-fired or already-canceled timer is a no-op. It reports whether the
// timer was still pending.
func (t Timer) Cancel() bool {
	ev := t.live()
	if ev == nil {
		return false
	}
	ev.canceled = true
	// The entry may stay queued until its deadline; its closure and the
	// message it would deliver need not, and the message goes back to its
	// network once nothing else holds it.
	m := ev.msg
	ev.fn, ev.deliver, ev.msg = nil, nil, nil
	if m != nil {
		m.release()
	}
	return true
}

// EventTag says what a pending kernel event is, so a snapshot can describe
// it and a restored kernel can re-insert it. For an event armed through an
// Owner the tag is all there is: the owner's fire function is handed the tag
// when the event comes due, in the original run and in a restored one alike.
// The zero tag marks an anonymous event: such events cannot be captured by a
// snapshot, so a checkpoint is only taken at instants where every pending
// event is tagged (see Kernel.CaptureSnapshot).
type EventTag struct {
	// Owner is the name the event's owner registered under (a NodeID string
	// such as "etcd" or "kubelet-n1", a part of a component such as
	// "scheduler/queue", or "oracles"); Owner.After fills it in. "workload"
	// and "plan" are not owners: they mark the closures the campaign layer
	// blanket-tags (SetDefaultTag) and re-creates by re-running them.
	Owner string
	// Kind names the timer within its owner ("tick", "resync",
	// "heartbeat", ...).
	Kind string
	// Key and N are the timer's arguments: a workqueue key or a member
	// name, an informer subscription ID or an attempt count.
	Key string
	N   uint64
	// Epoch is an informer's relist generation at arm time, on its
	// "inf-liveness" timer: a relist within one boot leaves the old firing
	// pending, and it must not re-establish a watch the relist replaced. No
	// tag counts boots — a boot is its Owner.
	Epoch uint64
}

// Owner is whatever arms tagged timers — a component, a connection's
// informers, a work queue — under the one function that runs them. What is
// created anew each time its component boots owns its timers itself and
// retires with them when the component crashes: the events of a retired
// owner stay in the queue, come due, count as steps, and run nothing.
type Owner struct {
	k       *Kernel
	name    string
	fire    func(EventTag)
	retired bool
	// observer marks the kernel's observer (Kernel.Observe): its one
	// pending event waits in the kernel's tick entry, not in the heap.
	observer bool
}

// retiredOwner stands in, read-only, for the owner of an event restored
// from a snapshot that recorded it as retired.
var retiredOwner = &Owner{retired: true}

// Own registers fire as the function that runs every event armed through
// the returned Owner. The name is how a restored kernel finds the owner of
// a captured event (RestorePending), so only one live owner may hold it.
func (k *Kernel) Own(name string, fire func(EventTag)) *Owner {
	if _, dup := k.owners[name]; dup {
		panic("sim: two live owners named " + name)
	}
	o := &Owner{k: k, name: name, fire: fire}
	k.owners[name] = o
	return o
}

// Observe registers fire as the kernel's observer: an owner like any other,
// named and restored by name, with at most one event pending at a time — the
// oracle runner's periodic tick. That event is held in one entry beside the
// heap, at the (at, seq) the heap would have given it, in a slot kept for it,
// so a clock that fires on a third of all steps costs no sift and, re-armed
// with the tag it had, writes no tag. A kernel has one observer.
func (k *Kernel) Observe(name string, fire func(EventTag)) *Owner {
	if k.observer != nil {
		panic("sim: a second observer " + name + " beside " + k.observer.name)
	}
	o := k.Own(name, fire)
	o.observer = true
	k.observer = o
	var ev *event
	k.tick.slot, ev = k.take()
	ev.owner = o
	return o
}

// Name returns the name the owner registered under.
func (o *Owner) Name() string { return o.name }

// After arms fire(tag) to run after virtual duration d (>= 0), with the
// tag's Owner set to this owner's name. It is scheduled exactly as Schedule
// would schedule a closure, and allocates nothing. The observer's event
// takes the tick entry, which must be free: the observer arms one event at a
// time.
func (o *Owner) After(d Duration, tag EventTag) Timer {
	if d < 0 {
		d = 0
	}
	tag.Owner = o.name
	at, ok := o.k.stamp(o.k.now.Add(d))
	if !ok {
		return Timer{}
	}
	if o.observer {
		return o.k.placeTick(at, o.k.seq, &tag)
	}
	return o.k.place(at, o.k.seq, &tag, o, o.k.delayLane(d))
}

// place occupies a slot with o's event and queues it at (at, seq) in lane
// ln (0: the heap). The observer's event goes to the tick entry instead.
func (k *Kernel) place(at Time, seq uint64, tag *EventTag, o *Owner, ln uint32) Timer {
	if o.observer {
		return k.placeTick(at, seq, tag)
	}
	slot, ev := k.take()
	// Field by field: a whole-struct copy into the table pays a bulk write
	// barrier whenever the collector is marking.
	ev.owner = o
	ev.tag.Owner, ev.tag.Kind, ev.tag.Key, ev.tag.N, ev.tag.Epoch = tag.Owner, tag.Kind, tag.Key, tag.N, tag.Epoch
	return k.push(at, seq, slot, ln)
}

// placeTick queues the observer's event in the tick entry and its slot. A
// canceled event still there gives both up.
func (k *Kernel) placeTick(at Time, seq uint64, tag *EventTag) Timer {
	ev := &k.slots[k.tick.slot]
	if k.ticking {
		if !ev.canceled {
			panic("sim: observer " + k.observer.name + " armed while its event is pending")
		}
		k.untick()
	}
	if ev.tag != *tag {
		ev.tag = *tag
	}
	k.tick.at, k.tick.seq, k.ticking = at, seq, true
	return Timer{k: k, slot: k.tick.slot, gen: ev.gen}
}

// untick empties the tick entry: its Timer goes inert, its slot stays the
// observer's.
func (k *Kernel) untick() {
	ev := &k.slots[k.tick.slot]
	ev.canceled = false
	ev.gen++
	k.ticking = false
}

// Retire makes every event the owner has armed, or arms from now on, run
// nothing when it comes due, and frees the owner's name for a successor.
func (o *Owner) Retire() {
	if !o.retired {
		o.retired = true
		delete(o.k.owners, o.name)
	}
}

// Retired reports whether Retire has been called.
func (o *Owner) Retired() bool { return o.retired }

// event is one slot of the kernel's event table. A slot is free, or the
// observer's (Observe keeps one), or the occupant of exactly one queue
// entry — in the heap or in a lane — which holds its (at, seq). An event takes one of three
// forms: a closure (fn); a message delivery (deliver, msg) — the network's
// per-message form; or an owner-dispatched timer (owner, with tag as its
// argument) — the only form a snapshot can re-create. The last two need no
// closure. Only the owner form carries a tag of its own; the other two
// point at the tag they were armed under (shared: the anonymous tag or the
// default one), so scheduling one writes two or three words. A free slot
// holds no fn, deliver, msg or owner. gen counts the slot's releases and is
// what a Timer is checked against.
type event struct {
	fn       func()
	deliver  func(*Message)
	msg      *Message
	owner    *Owner
	shared   *EventTag
	gen      uint64
	canceled bool
	tag      EventTag // last: only the owner form reads it
}

// tagOf is the tag the event was armed under.
func (ev *event) tagOf() *EventTag {
	if ev.owner != nil {
		return &ev.tag
	}
	return ev.shared
}

// heapEntry is one pending event in the queue: its firing order, the slot
// that holds the rest, and, for the head of a lane, that lane. It contains
// no pointers, so sifting it neither chases one nor pays a write barrier.
type heapEntry struct {
	at   Time
	seq  uint64
	slot uint32
	lane uint32 // the lane this entry heads; 0 for an event in no lane
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It holds
// the head of every non-empty lane and every event that is in no lane.
// Avoiding container/heap's interface dispatch and index bookkeeping is
// worth the ~30 lines.
type eventHeap []heapEntry

func (h *eventHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() {
	s := *h
	n := len(s) - 1
	e := s[n]
	*h = s[:n]
	if n > 0 {
		h.replaceTop(e)
	}
}

// replaceTop puts e where the top was and sifts it down: a pop and a push
// for the price of one sift.
func (h *eventHeap) replaceTop(e heapEntry) {
	s := *h
	n := len(s)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s[right].before(s[child]) {
			child = right
		}
		if !s[child].before(e) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = e
}

// lane is a stream of events that come due in the order they were queued:
// the deliveries on one FIFO link, or the timers armed at one fixed delay
// (now only moves forward, so now+d does too). Its head waits in the heap;
// the rest wait here, in a ring, behind it, and cost no sift until they
// reach the front. An event joins the lane only if it orders after the
// lane's tail; one that would not goes to the heap, so no lane is ever out
// of order, whatever the caller's delays or a restore's sequence numbers.
type lane struct {
	ring   []heapEntry // a power-of-two ring; n entries from head
	head   uint32
	n      uint32
	tail   heapEntry // the last entry queued, while active
	active bool      // the lane's head is in the heap
}

func (l *lane) put(e heapEntry) {
	if int(l.n) == len(l.ring) {
		ring := make([]heapEntry, max(4, 2*len(l.ring)))
		for i := uint32(0); i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&uint32(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&uint32(len(l.ring)-1)] = e
	l.n++
}

func (l *lane) take() heapEntry {
	e := l.ring[l.head]
	l.head = (l.head + 1) & uint32(len(l.ring)-1)
	l.n--
	return e
}

// delayLanes bounds how many distinct delays hold a lane at once. The
// components arm about a dozen fixed periods and timeouts; a delay beyond
// the bound, or a jittered one that finds every lane busy, is queued in the
// heap.
const delayLanes = 16

// delayLane is one entry of the kernel's delay table.
type delayLane struct {
	d    Duration
	lane uint32
}

// lfg is math/rand's additive lagged Fibonacci generator — the Source
// rand.NewSource returns, draw for draw — kept as a plain value, so that a
// snapshot holds a copy of it and a fork starts from that copy instead of
// seeding a fresh source and discarding every draw its prefix made.
type lfg struct {
	tap, feed int
	vec       [rngLen]int64
}

// The generator's register length and tap, math/rand's.
const (
	rngLen = 607
	rngTap = 273
)

// seeded returns the generator rand.NewSource(seed) is, at its first draw.
// math/rand keeps its register to itself, so it is read off the stream:
// draw i (from 1) adds register tap_i to register feed_i and returns the
// sum, and the first rngLen draws write every register once, so after
// them the register is the draws themselves. Undoing the additions, newest
// first, gives the register math/rand seeded.
func seeded(seed int64) lfg {
	std := rand.NewSource(seed).(rand.Source64)
	feed := func(i int) int { return (rngLen - rngTap - i + rngLen) % rngLen }
	tap := func(i int) int { return (rngLen - i) % rngLen }
	g := lfg{feed: rngLen - rngTap}
	for i := 1; i <= rngLen; i++ {
		g.vec[feed(i)] = int64(std.Uint64())
	}
	for i := rngLen; i >= 1; i-- {
		g.vec[feed(i)] -= g.vec[tap(i)]
	}
	return g
}

// next is math/rand's rngSource.Uint64.
func (g *lfg) next() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// source is the kernel's random stream: the generator and how many raw
// 64-bit draws have been taken from it, the position a snapshot records.
// Counting at the Source64 level (rather than per rand.Rand method) makes
// the count exact even for rejection-sampled helpers like Int63n. Int63
// masks, as math/rand's source does, so no value the simulation observes
// differs from math/rand's.
type source struct {
	gen   lfg
	draws uint64
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *source) Uint64() uint64 {
	s.draws++
	return s.gen.next()
}

// Seed restarts the stream at seed's first draw.
func (s *source) Seed(seed int64) { *s = source{gen: seeded(seed)} }

// Kernel is the discrete-event scheduler. It is not safe for concurrent use;
// the simulated world is single-threaded by design.
type Kernel struct {
	now     Time
	heap    eventHeap
	seq     uint64
	rng     *rand.Rand
	src     *source
	steps   uint64
	maxStep uint64 // safety valve; 0 = unlimited
	stopped bool

	// Snapshot/fork support (see snapshot.go). defaultTag, when non-nil,
	// is applied to events scheduled through the untagged At/Schedule
	// entry points — used to blanket-tag the workload's top-level timers.
	// rehydrating+rehydrateCutoff implement fork-time workload replay:
	// an At strictly before the cutoff burns its sequence number (the
	// full-replay run would have allocated it) but schedules nothing.
	// strictPast records an attempt to schedule into the past, which a
	// forked plan application must treat as "this plan cannot fork here".
	defaultTag      *EventTag
	rehydrating     bool
	rehydrateCutoff Time
	strictPast      bool
	strictErr       string

	// owners are the live (registered, not retired) owners by name.
	owners map[string]*Owner

	// observer is the owner Observe registered, and tick its pending event's
	// queue entry while ticking: the one event kept out of the heap. tick.slot
	// is the observer's for good; it never goes on the free list.
	observer *Owner
	tick     heapEntry
	ticking  bool

	// lanes are the FIFO streams (lanes[0] is never used: lane 0 is none),
	// and delays the fixed delays that hold one, ndelays of them: a link
	// names its lane itself (link.lane).
	lanes   []lane
	delays  [delayLanes]delayLane
	ndelays int

	// slots is the event table and free the indices of its unoccupied
	// slots (see DESIGN.md, "Event ownership rule"). A slot is released the
	// moment its entry leaves the queue — before the callback runs, so a
	// periodic timer's re-arm takes the slot it just vacated — and never
	// leaves the kernel: a fork's kernel grows its own table within its
	// first few hundred events and then schedules without allocating.
	slots []event
	free  []uint32
}

// release frees a dequeued entry's slot: the callback and message are dropped
// so a parked slot retains nothing, and the generation moves on so every
// Timer issued for the old occupant goes inert. fire clears a fired event's
// form itself and calls vacate.
func (k *Kernel) release(slot uint32) {
	ev := &k.slots[slot]
	ev.fn, ev.deliver, ev.msg, ev.owner = nil, nil, nil, nil
	ev.canceled = false
	k.vacate(slot, ev)
}

// vacate returns a slot whose form fields are clear to the free list.
func (k *Kernel) vacate(slot uint32, ev *event) {
	ev.gen++
	k.free = append(k.free, slot)
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Identical seeds yield identical simulations for identical inputs.
func NewKernel(seed int64) *Kernel { return newKernel(&source{gen: seeded(seed)}) }

func newKernel(src *source) *Kernel {
	return &Kernel{rng: rand.New(src), src: src, owners: make(map[string]*Owner)}
}

// newLane opens a lane and returns its number. A kernel opens its lanes as
// its links and delays are first used, so a restored one sets up none
// before it runs: what a capture held goes back in the heap.
func (k *Kernel) newLane() uint32 {
	if len(k.lanes) == 0 {
		k.lanes = make([]lane, 1, 32) // lane 0 is none
	}
	k.lanes = append(k.lanes, lane{})
	return uint32(len(k.lanes) - 1)
}

// delayLane returns the lane of the timers armed at delay d, taking an idle
// lane for it if it has none, or 0 when every lane of the table is busy.
func (k *Kernel) delayLane(d Duration) uint32 {
	for _, dl := range k.delays[:k.ndelays] {
		if dl.d == d {
			return dl.lane
		}
	}
	if k.ndelays < delayLanes {
		ln := k.newLane()
		k.delays[k.ndelays] = delayLane{d: d, lane: ln}
		k.ndelays++
		return ln
	}
	for i := range k.delays {
		if dl := &k.delays[i]; !k.lanes[dl.lane].active {
			dl.d = d
			return dl.lane
		}
	}
	return 0
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All simulated
// randomness (jitter, backoff, workload choices) must come from here.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Steps returns the number of events executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// SetMaxSteps bounds the number of events Run will execute; 0 means
// unlimited. It is a safety valve against livelocking simulations (which
// some injected bugs, e.g. scheduler livelock, intentionally produce).
func (k *Kernel) SetMaxSteps(n uint64) { k.maxStep = n }

// Schedule runs fn after virtual duration d (>= 0) and returns a cancelable
// timer. Callbacks scheduled for the same instant run in scheduling order.
func (k *Kernel) Schedule(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.at(k.now.Add(d), fn, k.delayLane(d))
}

// At runs fn at absolute virtual time t (clamped to now) and returns a
// cancelable timer. When a default tag is installed (SetDefaultTag) the
// event carries it; otherwise the event is anonymous and blocks snapshots
// while pending.
func (k *Kernel) At(t Time, fn func()) Timer { return k.at(t, fn, 0) }

// at is At queued in lane ln (0: the heap).
func (k *Kernel) at(t Time, fn func(), ln uint32) Timer {
	at, ok := k.stamp(t)
	if !ok {
		return Timer{}
	}
	slot, ev := k.take()
	ev.fn, ev.shared = fn, k.untagged()
	return k.push(at, k.seq, slot, ln)
}

// atDeliver is At for the network and the RPC client: the event is
// deliver(m), with no closure to allocate, queued in lane ln (0: the heap).
// It is numbered and ordered exactly as At would schedule it. The event
// holds m until it has fired or is canceled.
func (k *Kernel) atDeliver(t Time, deliver func(*Message), m *Message, ln uint32) Timer {
	at, ok := k.stamp(t)
	if !ok {
		return Timer{}
	}
	m.holds++
	slot, ev := k.take()
	ev.deliver, ev.msg, ev.shared = deliver, m, k.untagged()
	return k.push(at, k.seq, slot, ln)
}

// anonymous is the zero tag, shared read-only by every untagged event.
var anonymous EventTag

// untagged is the tag of an event scheduled without one.
func (k *Kernel) untagged() *EventTag {
	if k.defaultTag != nil {
		return k.defaultTag
	}
	return &anonymous
}

// stamp is the one scheduling path, for all three event forms: it allocates
// the next sequence number and returns the instant the event is queued at,
// t clamped to now. It reports false for an event of a rehydrated prefix,
// which burns its number and is not queued.
func (k *Kernel) stamp(t Time) (Time, bool) {
	if k.rehydrating && t < k.rehydrateCutoff {
		// Fork-time workload rehydration: the full-replay run scheduled
		// (and already fired) this event before the checkpoint. Burn the
		// sequence number it would have consumed so every later
		// allocation keeps its full-replay identity, but schedule
		// nothing: the caller gets the inert Timer. Under strict mode the
		// burn is itself the violation: the caller has declared that
		// nothing it schedules may belong to the prefix.
		if k.strictPast && k.strictErr == "" {
			k.strictErr = fmt.Sprintf("sim: schedule into the checkpointed prefix: at=%s cutoff=%s", t, k.rehydrateCutoff)
		}
		k.seq++
		return 0, false
	}
	if k.strictPast && t < k.now && k.strictErr == "" {
		k.strictErr = fmt.Sprintf("sim: schedule into the past: at=%s now=%s", t, k.now)
	}
	if t < k.now {
		t = k.now
	}
	k.seq++
	return t, true
}

// take hands out a free slot, growing the table when none is.
func (k *Kernel) take() (uint32, *event) {
	var slot uint32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		slot = uint32(len(k.slots))
		k.slots = append(k.slots, event{})
	}
	return slot, &k.slots[slot]
}

// push queues a filled slot at (at, seq): at the tail of lane ln if it
// orders after that tail, else in the heap — as the head of ln if ln is
// empty.
func (k *Kernel) push(at Time, seq uint64, slot uint32, ln uint32) Timer {
	e := heapEntry{at: at, seq: seq, slot: slot}
	if ln != 0 {
		l := &k.lanes[ln]
		switch {
		case !l.active:
			l.active, l.tail = true, e
			e.lane = ln
		case l.tail.before(e):
			l.tail = e
			l.put(e)
			return Timer{k: k, slot: slot, gen: k.slots[slot].gen}
		}
	}
	k.heap.push(e)
	return Timer{k: k, slot: slot, gen: k.slots[slot].gen}
}

// advance takes the heap's top, the head of lane ln, off the queue: the
// lane's next live entry replaces it, canceled ones are released on the way,
// and a lane run dry leaves the heap.
func (k *Kernel) advance(ln uint32) {
	l := &k.lanes[ln]
	for l.n > 0 {
		e := l.take()
		if k.slots[e.slot].canceled {
			k.release(e.slot)
			continue
		}
		e.lane = ln
		k.heap.replaceTop(e)
		return
	}
	l.active = false
	k.heap.pop()
}

// each calls f on every queued entry: the heap's, those waiting in a lane
// behind its head, and the tick's.
func (k *Kernel) each(f func(heapEntry)) {
	for _, e := range k.heap {
		f(e)
	}
	for i := range k.lanes {
		l := &k.lanes[i]
		for j := uint32(0); j < l.n; j++ {
			f(l.ring[(l.head+j)&uint32(len(l.ring)-1)])
		}
	}
	if k.ticking {
		f(k.tick)
	}
}

// peek returns the next entry in firing order and whether it is the tick:
// the observer's event goes first when it orders before the heap's top.
func (k *Kernel) peek() (e heapEntry, tick, ok bool) {
	if k.ticking && (len(k.heap) == 0 || k.tick.before(k.heap[0])) {
		return k.tick, true, true
	}
	if len(k.heap) == 0 {
		return heapEntry{}, false, false
	}
	return k.heap[0], false, true
}

// dequeue removes the entry peek returned and reports whether its event
// was canceled, in which case its slot is released.
func (k *Kernel) dequeue(e heapEntry, tick bool) (canceled bool) {
	canceled = k.slots[e.slot].canceled
	switch {
	case tick:
		if canceled {
			k.untick()
		} else {
			k.ticking = false
		}
		return canceled
	case e.lane != 0:
		k.advance(e.lane)
	default:
		k.heap.pop()
	}
	if canceled {
		k.release(e.slot)
	}
	return canceled
}

// Step executes the single next pending event. It reports whether an event
// was executed (false when the queue is empty).
func (k *Kernel) Step() bool {
	for {
		e, tick, ok := k.peek()
		if !ok {
			return false
		}
		if !k.dequeue(e, tick) {
			k.fire(e, tick)
			return true
		}
	}
}

// fire runs a dequeued, uncanceled entry as one step. Whatever form the
// event takes, it is copied out of the slot and the slot released before it
// runs; the tick's slot stays the observer's, and only its generation moves.
func (k *Kernel) fire(e heapEntry, tick bool) {
	k.now = e.at
	k.steps++
	ev := &k.slots[e.slot]
	switch {
	case tick:
		ev.gen++
		if o := ev.owner; !o.retired {
			o.fire(ev.tag)
		}
	case ev.deliver != nil:
		deliver, m := ev.deliver, ev.msg
		ev.deliver, ev.msg = nil, nil
		k.vacate(e.slot, ev)
		deliver(m)
		m.release()
	case ev.owner == nil:
		fn := ev.fn
		ev.fn = nil
		k.vacate(e.slot, ev)
		fn()
	default:
		owner, tag := ev.owner, ev.tag
		ev.owner = nil
		k.vacate(e.slot, ev)
		if !owner.retired {
			owner.fire(tag)
		}
	}
}

// Run executes events until the queue is empty, Stop is called, the step
// budget is exhausted, or virtual time would pass until (exclusive). Pass
// until <= 0 to run with no time bound. It returns the time at which it
// stopped.
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	for !k.stopped {
		if k.maxStep != 0 && k.steps >= k.maxStep {
			break
		}
		next, tick, ok := k.peek()
		if !ok {
			// Virtual time passes even with nothing scheduled: a bounded
			// run always ends at its bound.
			if until > 0 && k.now < until {
				k.now = until
			}
			break
		}
		if until > 0 && next.at >= until {
			k.now = until
			break
		}
		if !k.dequeue(next, tick) {
			k.fire(next, tick)
		}
	}
	return k.now
}

// RunFor executes events for virtual duration d from the current time.
func (k *Kernel) RunFor(d Duration) Time { return k.Run(k.now.Add(d)) }

// Drain runs until no events remain (subject to the step budget).
func (k *Kernel) Drain() Time { return k.Run(0) }
