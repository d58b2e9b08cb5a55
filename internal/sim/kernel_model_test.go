package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The kernel's queue against a model. A byte string is a program over the
// kernel's scheduling surface; the same program drives a real Kernel and
// modelKernel — a flat slice scanned for the minimum (at, seq), sharing no
// code with the heap, the lanes, the tick entry, the slot table or Timer —
// and after every operation the two must agree on everything observable:
// what fired and in which order, every Cancel result, Now, Steps, Seq,
// Pending, the strict-past verdict, and the (at, seq, tag, retired) set a
// snapshot captures. The kernel's observer is one more owner to the model:
// its events sit in the same slice as every other. So do the events the
// kernel keeps in lanes: the model has none, and after every operation each
// lane must be in order with its head, and only its head, in the heap.

// evSpec is one event of a program: what it logs when it fires and what it
// does from inside its callback. Specs (and their ids and handle numbers)
// are fixed when the program is parsed, so both sides arm the same thing.
type evSpec struct {
	id         int     // logged on fire
	handle     int     // index of the Timer this event's scheduling returns
	delivery   bool    // scheduled through atDeliver, not At (no Timer)
	link       int     // > 0: delivered on test link link-1, in its lane (with a Timer)
	owned      bool    // armed through an Owner: the event is its tag
	owner      int     // which owner: 0 and 1, or observer
	cancelSelf bool    // the callback cancels its own handle (always false)
	cancelIdx  int     // >= 0: the callback cancels that handle
	child      *evSpec // the callback schedules this at now+childDt
	childDt    Duration
}

// ownerNames are the names owners register under: two owners that retire
// and are succeeded, and the kernel's observer, which does neither and arms
// one event at a time. An owned event's tag carries its spec's id, which is
// how the owner's fire function finds what to run: nothing but the tag
// travels through the kernel.
var ownerNames = [3]string{"model-a", "model-b", "model-obs"}

// observer is the index of the observer in ownerNames.
const observer = 2

func (s *evSpec) tag() EventTag {
	return EventTag{Owner: ownerNames[s.owner], Kind: "ev", N: uint64(s.id)}
}

// incarnation is one registration of an owner name: the n-th.
type incarnation struct{ owner, n int }

// inert is the incarnation of an event restored as retired.
var inert = incarnation{owner: -1}

// Log entries: an event id (>= 0) for a fire, or one of these for a Cancel
// made from inside a callback.
const (
	logCancelFalse = -1
	logCancelTrue  = -2
)

func logCancel(ok bool) int {
	if ok {
		return logCancelTrue
	}
	return logCancelFalse
}

// modelEvent is one pending event of the model.
type modelEvent struct {
	at   Time
	seq  uint64
	tag  EventTag
	spec *evSpec
	inc  incarnation // of an owned event: the registration it was armed through
}

// modelKernel restates the kernel's contract over a flat slice. Canceled
// events are removed at once, so there is no lazy deletion to get wrong.
type modelKernel struct {
	now         Time
	seq, steps  uint64
	pending     []modelEvent
	live        map[int]bool // handle -> scheduled, not yet fired or canceled
	log         []int
	defaultTag  *EventTag
	rehydrating bool
	cutoff      Time
	strict      bool
	violated    bool
	// inc is each owner name's current registration and gone the retired
	// ones: a name between Retire and the next Own has its current one gone.
	inc  [3]int
	gone map[incarnation]bool
	// rng is math/rand's own source under the kernel's seed: the stream the
	// kernel's must be, across forks too.
	rng rand.Source64
}

// observing reports whether the observer has an event pending: it arms no
// second one until that one has fired or been canceled.
func (m *modelKernel) observing() bool {
	for _, e := range m.pending {
		if e.spec.owned && e.spec.owner == observer && e.inc != inert {
			return true
		}
	}
	return false
}

func (m *modelKernel) retired(e modelEvent) bool {
	return e.spec.owned && (e.inc == inert || m.gone[e.inc])
}

func (m *modelKernel) min() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at ||
			(e.at == m.pending[best].at && e.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *modelKernel) schedule(at Time, s *evSpec) {
	if s.owned && s.owner == observer && m.observing() {
		return // the program does not ask: arming over a pending event is a bug
	}
	var tag EventTag
	switch {
	case s.owned:
		tag = s.tag()
		if at < m.now {
			at = m.now // After clamps the delay, not the instant: no strict-past verdict
		}
	case m.defaultTag != nil:
		tag = *m.defaultTag
	}
	if m.rehydrating && at < m.cutoff {
		if m.strict {
			m.violated = true
		}
		m.seq++
		return
	}
	if at < m.now {
		if m.strict {
			m.violated = true
		}
		at = m.now
	}
	m.seq++
	m.pending = append(m.pending, modelEvent{at: at, seq: m.seq, tag: tag, spec: s,
		inc: incarnation{s.owner, m.inc[s.owner]}})
	if s.handled() {
		m.live[s.handle] = true
	}
}

// handled reports whether scheduling the spec returns a Timer the program
// keeps: every form but a plain delivery.
func (s *evSpec) handled() bool { return !s.delivery || s.link > 0 }

func (m *modelKernel) cancel(handle int) bool {
	if !m.live[handle] {
		return false
	}
	delete(m.live, handle)
	for i, e := range m.pending {
		if e.spec.handled() && e.spec.handle == handle {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	return true
}

func (m *modelKernel) step() bool {
	i := m.min()
	if i < 0 {
		return false
	}
	e := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	if e.spec.handled() {
		delete(m.live, e.spec.handle)
	}
	m.now = e.at
	m.steps++
	if m.retired(e) {
		return true // a step like any other, and nothing else
	}
	s := e.spec
	m.log = append(m.log, s.id)
	if s.cancelSelf {
		m.log = append(m.log, logCancel(m.cancel(s.handle)))
	}
	if s.cancelIdx >= 0 {
		m.log = append(m.log, logCancel(m.cancel(s.cancelIdx)))
	}
	if s.child != nil {
		m.schedule(m.now.Add(s.childDt), s.child)
	}
	return true
}

func (m *modelKernel) run(until Time) {
	for {
		i := m.min()
		if i < 0 {
			if until > 0 && m.now < until {
				m.now = until
			}
			return
		}
		if until > 0 && m.pending[i].at >= until {
			m.now = until
			return
		}
		m.step()
	}
}

// capture is CaptureSnapshot's pending set: by repeated minimum, not a sort.
func (m *modelKernel) capture() ([]PendingEvent, bool) {
	rest := append([]modelEvent(nil), m.pending...)
	out := []PendingEvent{}
	for len(rest) > 0 {
		best := 0
		for i, e := range rest {
			if e.at < rest[best].at || (e.at == rest[best].at && e.seq < rest[best].seq) {
				best = i
			}
		}
		e := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		if e.tag == (EventTag{}) {
			return nil, false
		}
		out = append(out, PendingEvent{At: e.at, Seq: e.seq, Tag: e.tag, Retired: m.retired(e)})
	}
	return out, true
}

// kernelSide drives the real kernel with the same specs.
type kernelSide struct {
	k      *Kernel
	timers map[int]Timer // handle -> what its scheduling returned (absent: zero Timer)
	log    []int
	// owners holds each name's latest registration, retired or not, and
	// specs what an owned event's tag stands for, by spec id.
	owners [3]*Owner
	specs  map[int]*evSpec
	// onDeliver is bound once, as Network binds its deliver method; the
	// delivery form's spec rides in the message payload.
	onDeliver func(*Message)
	// links are two test links: each its lane, FIFO frontier and the
	// handles of what was sent on it, in sending order.
	links [2]testLink
}

// testLink is what a Network keeps of a link for its lane: the lane and the
// frontier its in-order deliveries are clamped to.
type testLink struct {
	lane    uint32
	lastAt  Time
	handles []int
}

func newKernelSide() *kernelSide {
	ks := &kernelSide{k: NewKernel(1), timers: map[int]Timer{}, specs: map[int]*evSpec{}}
	ks.onDeliver = func(m *Message) { ks.fire(m.Payload.(*evSpec)) }
	ks.own(0)
	ks.own(1)
	ks.owners[observer] = ks.k.Observe(ownerNames[observer], ks.fireTag)
	ks.openLinks()
	return ks
}

// openLinks gives each test link a lane on the current kernel, as a
// restored network's links take theirs anew.
func (ks *kernelSide) openLinks() {
	for i := range ks.links {
		ks.links[i] = testLink{lane: ks.k.newLane(), lastAt: ks.links[i].lastAt}
	}
}

func (ks *kernelSide) own(i int) { ks.owners[i] = ks.k.Own(ownerNames[i], ks.fireTag) }

func (ks *kernelSide) fireTag(tag EventTag) { ks.fire(ks.specs[int(tag.N)]) }

// fork moves the side onto a kernel restored from snap, as a forked
// execution is: owners registered anew (retired where the model's current
// incarnation is), every captured event re-inserted under its sequence
// number, the counter set. A restored event has no handle.
func (ks *kernelSide) fork(snap KernelSnapshot, retired [2]bool, defaultTag *EventTag) error {
	k := NewRestoredKernel(snap)
	ks.k, ks.timers = k, map[int]Timer{}
	for i, gone := range retired {
		if gone {
			ks.owners[i] = &Owner{k: k, name: ownerNames[i], fire: ks.fireTag, retired: true}
		} else {
			ks.own(i)
		}
	}
	ks.owners[observer] = k.Observe(ownerNames[observer], ks.fireTag)
	ks.openLinks()
	for _, pe := range snap.Pending {
		if err := k.RestorePending(pe, pe.Seq); err != nil {
			return err
		}
	}
	k.SetSeq(snap.Seq)
	k.SetDefaultTag(defaultTag)
	return nil
}

// observing is the kernel's own answer to modelKernel.observing.
func (ks *kernelSide) observing() bool {
	return ks.k.ticking && !ks.k.slots[ks.k.tick.slot].canceled
}

func (ks *kernelSide) fire(s *evSpec) {
	ks.log = append(ks.log, s.id)
	if s.cancelSelf {
		ks.log = append(ks.log, logCancel(ks.timers[s.handle].Cancel()))
	}
	if s.cancelIdx >= 0 {
		ks.log = append(ks.log, logCancel(ks.timers[s.cancelIdx].Cancel()))
	}
	if s.child != nil {
		ks.schedule(ks.k.Now().Add(s.childDt), s.child)
	}
}

func (ks *kernelSide) schedule(at Time, s *evSpec) {
	switch {
	case s.link > 0:
		l := &ks.links[s.link-1]
		ks.timers[s.handle] = ks.k.atDeliver(at, ks.onDeliver, &Message{Payload: s}, l.lane)
		l.handles = append(l.handles, s.handle)
	case s.delivery:
		ks.k.atDeliver(at, ks.onDeliver, &Message{Payload: s}, 0)
	case s.owned:
		if s.owner == observer && ks.observing() {
			return
		}
		ks.specs[s.id] = s
		ks.timers[s.handle] = ks.owners[s.owner].After(at.Sub(ks.k.Now()), EventTag{Kind: "ev", N: uint64(s.id)})
	default:
		ks.timers[s.handle] = ks.k.At(at, func() { ks.fire(s) })
	}
}

// after arms s at the fixed delay d: through its owner's After, or as a
// closure through Schedule — both queue in the delay's lane.
func (ks *kernelSide) after(d Duration, s *evSpec) {
	switch {
	case s.owned:
		ks.schedule(ks.k.Now().Add(d), s)
	case s.delivery:
		ks.k.atDeliver(ks.k.Now().Add(d), ks.onDeliver, &Message{Payload: s}, ks.k.delayLane(d))
	default:
		ks.timers[s.handle] = ks.k.Schedule(d, func() { ks.fire(s) })
	}
}

// checkLanes holds the kernel to the lane invariant: every active lane has
// its head, and only its head, in the heap, and the entries behind it
// follow it and each other in (at, seq) order, ending at the tail; an idle
// lane holds nothing.
func checkLanes(k *Kernel) error {
	heads := map[uint32]heapEntry{}
	for _, e := range k.heap {
		if e.lane == 0 {
			continue
		}
		if _, dup := heads[e.lane]; dup {
			return fmt.Errorf("lane %d has two heads in the heap", e.lane)
		}
		heads[e.lane] = e
	}
	for ln := range k.lanes {
		l := &k.lanes[ln]
		head, ok := heads[uint32(ln)]
		switch {
		case ok != l.active:
			return fmt.Errorf("lane %d: active=%v, head in heap=%v", ln, l.active, ok)
		case !l.active && l.n > 0:
			return fmt.Errorf("lane %d: idle with %d entries", ln, l.n)
		case !l.active:
			continue
		}
		prev := head
		for j := uint32(0); j < l.n; j++ {
			e := l.ring[(l.head+j)&uint32(len(l.ring)-1)]
			if !prev.before(e) {
				return fmt.Errorf("lane %d: entry %d (%d, %d) does not follow (%d, %d)", ln, j, e.at, e.seq, prev.at, prev.seq)
			}
			prev = e
		}
		if prev.at != l.tail.at || prev.seq != l.tail.seq {
			return fmt.Errorf("lane %d ends at (%d, %d), tail says (%d, %d)", ln, prev.at, prev.seq, l.tail.at, l.tail.seq)
		}
	}
	return nil
}

// program decodes operations from a byte string; reads past the end are 0.
type program struct {
	data    []byte
	pos     int
	nextID  int
	handles int
}

func (p *program) done() bool { return p.pos >= len(p.data) }

func (p *program) byte() byte {
	if p.done() {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

// spec decodes one event, with up to depth nested children. mask clears
// flag bits the caller cannot use (a restored event is never a delivery).
func (p *program) spec(depth int, mask byte) *evSpec {
	flags := p.byte() &^ mask
	s := &evSpec{id: p.nextID, handle: p.handles, cancelIdx: -1}
	p.nextID++
	s.delivery = flags&1 != 0
	s.owned = flags&(2|64) != 0 && !s.delivery
	s.owner = int(flags >> 5 & 1)
	if flags&64 != 0 {
		s.owner = observer
	}
	if !s.delivery {
		p.handles++
		s.cancelSelf = flags&4 != 0
	}
	if flags&8 != 0 && p.handles > 0 {
		s.cancelIdx = int(p.byte()) % p.handles
	}
	if flags&16 != 0 && depth > 0 {
		s.childDt = Duration(p.byte() % 8)
		s.child = p.spec(depth-1, 0)
	}
	return s
}

// fixedDelays are the delays the fixed-delay op arms at: few enough that
// their lanes fill, one of them zero.
var fixedDelays = [4]Duration{0, 3, 5, 9}

// maxProgram bounds a program's length: the model is quadratic by design,
// and a fuzzer left alone grows inputs until one execution takes seconds.
const maxProgram = 2048

// runProgram executes data on both sides, comparing after every operation.
func runProgram(t *testing.T, data []byte) {
	t.Helper()
	if len(data) > maxProgram {
		data = data[:maxProgram]
	}
	p := &program{data: data}
	ks := newKernelSide()
	m := &modelKernel{live: map[int]bool{}, gone: map[incarnation]bool{}, rng: rand.NewSource(1).(rand.Source64)}
	k := ks.k
	defTag := EventTag{Owner: "model", Kind: "default"}
	compared := 0 // log entries already found equal

	for op := 0; !p.done(); op++ {
		code := p.byte() % 16
		switch code {
		case 0, 1: // schedule at now+dt; dt < 0 exercises the clamp
			dt := Duration(p.byte()%24) - 2
			s := p.spec(2, 0)
			at := m.now.Add(dt)
			ks.schedule(at, s)
			m.schedule(at, s)
		case 2: // cancel a handle: live, fired, canceled, stale or never issued
			h := int(p.byte()) % (p.handles + 1)
			tm := ks.timers[h]
			if got, want := tm.Pending(), m.live[h]; got != want {
				t.Fatalf("op %d: handle %d Pending() = %v, model %v", op, h, got, want)
			}
			got, want := tm.Cancel(), m.cancel(h)
			if got != want {
				t.Fatalf("op %d: handle %d Cancel() = %v, model %v", op, h, got, want)
			}
			if tm.Pending() {
				t.Fatalf("op %d: handle %d pending after Cancel", op, h)
			}
		case 3: // Step
			if got, want := k.Step(), m.step(); got != want {
				t.Fatalf("op %d: Step() = %v, model %v", op, got, want)
			}
		case 4: // Run(until); now+0 at time 0 is Drain
			until := m.now.Add(Duration(p.byte() % 32))
			k.Run(until)
			m.run(until)
		case 5: // RestorePending by tag, with an explicit seq
			at := m.now.Add(Duration(p.byte()%16) - 1)
			// As the restore orchestration does: explicit sequence numbers
			// come from at or below where the counter ends up, so no later
			// schedule can collide with one.
			seq := uint64(p.byte()) % (m.seq + 4)
			s := p.spec(1, 1)
			s.owned = true // the only form a snapshot re-creates
			// The captured event, as its owner stands; or captured retired;
			// or under a name nobody registered.
			pe := PendingEvent{At: at, Seq: seq, Tag: s.tag()}
			inc := incarnation{s.owner, m.inc[s.owner]}
			wantErr := at < m.now || m.gone[inc]
			switch p.byte() % 4 {
			case 2:
				pe.Retired, inc = true, inert
				wantErr = at < m.now
			case 3:
				pe.Tag.Owner, wantErr = "nobody", true
			}
			dup := false
			for _, e := range m.pending {
				dup = dup || (e.at == at && e.seq == seq)
			}
			if dup {
				continue // a restore never reuses a pending (at, seq)
			}
			if s.owner == observer && !pe.Retired && pe.Tag.Owner != "nobody" && m.observing() {
				continue // a capture holds one observer event at most
			}
			ks.specs[s.id] = s
			err := k.RestorePending(pe, seq)
			if (err != nil) != wantErr {
				t.Fatalf("op %d: RestorePending(%+v) at now=%d: err = %v, want one: %v", op, pe, m.now, err, wantErr)
			}
			if err == nil { // no handle: a restored event cannot be canceled
				m.pending = append(m.pending, modelEvent{at: at, seq: seq, tag: pe.Tag, spec: s, inc: inc})
			}
			if seq > m.seq {
				m.seq = seq
				k.SetSeq(seq)
			}
		case 6: // CaptureSnapshot
			capture(t, op, k, m)
		case 7: // the burn path: schedule under rehydration around a cutoff
			cutoff := m.now.Add(Duration(p.byte() % 8))
			at := m.now.Add(Duration(p.byte() % 8))
			s := p.spec(1, 0)
			k.BeginRehydrate(cutoff)
			m.rehydrating, m.cutoff = true, cutoff
			ks.schedule(at, s)
			m.schedule(at, s)
			k.EndRehydrate()
			m.rehydrating = false
			if at < cutoff && !s.delivery {
				if tm := ks.timers[s.handle]; tm != (Timer{}) {
					t.Fatalf("op %d: burned schedule returned %+v, want the zero Timer", op, tm)
				}
			}
		case 8: // toggle the default tag / strict-past recording
			if b := p.byte(); b&1 != 0 {
				if m.defaultTag == nil {
					m.defaultTag = &defTag
				} else {
					m.defaultTag = nil
				}
				k.SetDefaultTag(m.defaultTag)
			} else {
				m.strict = !m.strict
				if m.strict {
					m.violated = false
				}
				k.SetStrictPast(m.strict)
			}
		case 9: // the restore path's counter jump (forward only)
			m.seq += uint64(p.byte() % 4)
			k.SetSeq(m.seq)
		case 10: // retire an owner; or, if it is retired, register its successor
			i := int(p.byte() % 2)
			if inc := (incarnation{i, m.inc[i]}); !m.gone[inc] {
				ks.owners[i].Retire()
				m.gone[inc] = true
			} else {
				ks.own(i)
				m.inc[i]++
			}
		case 11: // fork: draw, capture, restore onto a fresh kernel, go on there
			// The draws take the stream past the register length (607)
			// within a few forks; the next op's draws come from the
			// restored kernel's copy of it.
			for i := 0; i < 1+int(m.steps%4)*200; i++ {
				if got, want := k.Rand().Uint64(), m.rng.Uint64(); got != want {
					t.Fatalf("op %d: draw %d is %#x, math/rand's %#x", op, k.RNGDraws(), got, want)
				}
			}
			snap, ok := k.CaptureSnapshot()
			if !ok {
				break
			}
			forkable := true
			for _, pe := range snap.Pending {
				forkable = forkable && (pe.Retired || pe.Tag.Owner != defTag.Owner)
			}
			if !forkable {
				break // a default-tagged closure: a fork re-creates it by replaying the workload
			}
			retired := [2]bool{m.gone[incarnation{0, m.inc[0]}], m.gone[incarnation{1, m.inc[1]}]}
			if err := ks.fork(snap, retired, m.defaultTag); err != nil {
				t.Fatalf("op %d: fork: %v", op, err)
			}
			k = ks.k
			m.live = map[int]bool{}
			m.strict, m.violated = false, false
		case 12: // a fixed-delay timer: Schedule, After or a delivery at one of few delays,
			// or at one of more delays than the kernel's table has lanes for
			b := p.byte()
			d := fixedDelays[b%4]
			if b&4 != 0 {
				d = Duration(b >> 3)
			}
			s := p.spec(2, 0)
			ks.after(d, s)
			m.schedule(m.now.Add(d), s)
		case 13: // a delivery on a link, in order; or one that would break its lane's order
			b := p.byte()
			l := &ks.links[b&1]
			at := m.now.Add(Duration(p.byte() % 12))
			if b&2 == 0 { // in order: clamped to the link's frontier, as Network.send does
				at = max(at, l.lastAt)
				l.lastAt = at
			}
			s := p.spec(2, 1|2|64) // a plain delivery's form, with a handle
			s.link = int(b&1) + 1
			ks.schedule(at, s)
			m.schedule(at, s)
		case 14: // cancel the head of a link's lane, or an entry in its middle
			b := p.byte()
			var live []int
			for _, h := range ks.links[b&1].handles {
				if m.live[h] {
					live = append(live, h)
				}
			}
			if len(live) == 0 {
				break
			}
			h := live[0]
			if b&2 != 0 {
				h = live[len(live)/2]
			}
			if got, want := ks.timers[h].Cancel(), m.cancel(h); got != want {
				t.Fatalf("op %d: lane handle %d Cancel() = %v, model %v", op, h, got, want)
			}
		case 15: // capture with a lane's ring non-empty: two owned events at one delay
			d := fixedDelays[1+p.byte()%3]
			for range 2 {
				s := p.spec(0, 1|64) // owned by owner 0 or 1, never the observer
				s.owned = true
				ks.after(d, s)
				m.schedule(m.now.Add(d), s)
			}
			capture(t, op, k, m)
		}

		if !reflect.DeepEqual(ks.log[compared:], m.log[min(compared, len(m.log)):]) {
			t.Fatalf("op %d (code %d): fire log\n kernel %v\n model  %v", op, code, ks.log, m.log)
		}
		compared = len(ks.log)
		if k.Now() != m.now || k.Steps() != m.steps || k.Seq() != m.seq || k.Pending() != len(m.pending) {
			t.Fatalf("op %d (code %d): kernel now=%d steps=%d seq=%d pending=%d, model now=%d steps=%d seq=%d pending=%d",
				op, code, k.Now(), k.Steps(), k.Seq(), k.Pending(), m.now, m.steps, m.seq, len(m.pending))
		}
		if got, want := k.Rand().Int63(), m.rng.Int63(); got != want {
			t.Fatalf("op %d (code %d): draw %d is %d, math/rand's %d", op, code, k.RNGDraws(), got, want)
		}
		if got := k.StrictViolation() != ""; got != m.violated {
			t.Fatalf("op %d (code %d): strict violation %q, model %v", op, code, k.StrictViolation(), m.violated)
		}
		for _, e := range k.heap {
			if k.slots[e.slot].owner == ks.owners[observer] {
				t.Fatalf("op %d (code %d): the observer's event is in the heap", op, code)
			}
		}
		if err := checkLanes(k); err != nil {
			t.Fatalf("op %d (code %d): %v", op, code, err)
		}
	}

	// Whatever is left fires in the model's order too.
	k.Drain()
	m.run(0)
	if !reflect.DeepEqual(ks.log, m.log) || k.Now() != m.now || k.Steps() != m.steps {
		t.Fatalf("final drain: kernel log %v now=%d steps=%d\n model log %v now=%d steps=%d",
			ks.log, k.Now(), k.Steps(), m.log, m.now, m.steps)
	}
	// The slot table never outgrows the most events ever pending at once:
	// every popped entry's slot went back on the free list, all but the one
	// the observer keeps.
	if len(k.free)+1 != len(k.slots) {
		t.Fatalf("after drain %d of %d slots are free, want all but the observer's", len(k.free), len(k.slots))
	}
}

// capture compares the kernel's CaptureSnapshot with the model's.
func capture(t *testing.T, op int, k *Kernel, m *modelKernel) {
	t.Helper()
	snap, ok := k.CaptureSnapshot()
	want, wantOK := m.capture()
	if ok != wantOK {
		t.Fatalf("op %d: CaptureSnapshot ok = %v, model %v", op, ok, wantOK)
	}
	if ok && !reflect.DeepEqual(snap.Pending, want) {
		t.Fatalf("op %d: captured\n %v\nmodel\n %v", op, snap.Pending, want)
	}
	if ok && (snap.Now != m.now || snap.Seq != m.seq || snap.Steps != m.steps) {
		t.Fatalf("op %d: snapshot header %+v, model now=%d seq=%d steps=%d", op, snap, m.now, m.seq, m.steps)
	}
}

// modelSeeds are the hand-written programs: one per hazard worth naming.
var modelSeeds = [][]byte{
	// three at one instant fire in scheduling order
	{0, 7, 0, 0, 7, 0, 0, 7, 0, 4, 31},
	// fire, let the slot be reused, cancel the old handle
	{0, 3, 0, 3, 0, 3, 0, 2, 0, 3},
	// cancel, run past it (the lazy pop), reuse, cancel again
	{0, 5, 0, 2, 0, 4, 20, 0, 5, 0, 2, 0, 2, 1, 4, 20},
	// a callback that cancels itself and schedules a child into its own slot
	{0, 2, 4 | 16, 0, 0, 3, 3},
	// a callback that cancels a later event, which must not fire
	{0, 9, 0, 0, 2, 8, 0, 4, 31},
	// delivery form between two closures at the same instant
	{0, 4, 0, 0, 4, 1, 0, 4, 0, 4, 31},
	// burn: seq moves, nothing fires, the handle is inert
	{7, 5, 1, 0, 2, 0, 0, 3, 0, 4, 31},
	// restore below the counter sorts ahead of an equal-time event
	{0, 6, 0, 5, 5, 0, 0, 0, 4, 31},
	// an owned event between two closures at one instant, run by its owner
	{0, 4, 0, 0, 4, 2, 0, 4, 0, 4, 31},
	// one of two owners retires: its event is a step that logs nothing and
	// captures retired, the other owner's fires
	{0, 5, 2, 0, 5, 2 | 32, 10, 0, 6, 3, 6, 3},
	// a successor under the retired owner's name: its events run, the old
	// incarnation's stay inert; an arm through the retired handle is born inert
	{0, 5, 2, 10, 0, 0, 6, 2, 10, 0, 0, 7, 2, 6, 4, 31},
	// restore by tag: a live owner's, one captured retired, one nobody owns
	// (refused), one whose owner has retired since (refused)
	{5, 3, 1, 0, 0, 5, 3, 2, 0, 2, 5, 3, 3, 0, 3, 10, 1, 5, 3, 4, 32, 0, 6, 4, 31},
	// snapshot refused while an anonymous event is pending, granted under a default tag
	{0, 4, 0, 6, 3, 8, 1, 0, 4, 0, 6},
	// strict past: the clamp is a violation
	{4, 9, 8, 0, 0, 0, 0, 3},
	// the observer ties with a closure and an owner's event at one instant
	// and fires in sequence order among them; it re-arms from its callback
	{0, 5, 64 | 16, 3, 64, 0, 5, 0, 0, 5, 2, 4, 31},
	// cancel the observer's event and re-arm it before the canceled entry
	// is popped; an arm while one is pending is not made
	{0, 5, 64, 2, 0, 0, 4, 64, 0, 6, 64, 4, 31},
	// restore an observer event below the counter, ahead of an equal-time
	// closure; then one captured retired, which waits in the heap
	{0, 6, 0, 5, 5, 0, 64, 0, 5, 5, 0, 64, 2, 4, 31},
	// fork mid-run with the observer, an owner and a retired owner's event
	// pending, and go on in the restored kernel
	{0, 5, 64 | 16, 3, 64, 0, 5, 2, 0, 5, 2 | 32, 10, 1, 3, 11, 6, 4, 31},
	// three deliveries on one link: the second is clamped behind the first
	// and joins the lane; the third escapes the frontier, would break the
	// lane's order, and waits in the heap — and fires first
	{13, 0, 5, 0, 13, 0, 2, 0, 13, 2, 1, 0, 4, 31},
	// two links whose lane heads tie at one instant fire in sequence order
	{13, 0, 4, 0, 13, 1, 4, 0, 13, 0, 4, 0, 13, 1, 4, 0, 4, 31},
	// cancel a lane's head, then an entry in its middle: both are released
	// as the lane reaches them and neither fires
	{13, 0, 3, 0, 13, 0, 4, 0, 13, 0, 5, 0, 13, 0, 6, 0, 14, 0, 14, 2, 4, 31},
	// two closures, an owned timer and a delivery at one fixed delay share
	// its lane; the last closure arms a child from its callback
	{12, 1, 0, 12, 1, 2, 12, 1, 1, 12, 1, 16, 3, 0, 4, 31},
	// capture while a delay lane holds two owned events, and fork onto a
	// restored kernel with them pending
	{15, 0, 0, 32, 3, 15, 1, 0, 0, 11, 4, 31},
}

// overflowSeed arms closures at 20 distinct delays at once — four more than
// the delay table has lanes, so those four wait in the heap — runs them,
// and arms four new delays, which take lanes the first ones left idle.
var overflowSeed = func() []byte {
	var p []byte
	for d := range 20 {
		p = append(p, 12, byte(d<<3|4), 0)
	}
	p = append(p, 4, 31)
	for d := 20; d < 24; d++ {
		p = append(p, 12, byte(d<<3|4), 0)
	}
	return append(p, 4, 31)
}()

func TestKernelMatchesModel(t *testing.T) {
	for i, seed := range append(modelSeeds, overflowSeed) {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { runProgram(t, seed) })
	}
	// Random programs: long enough for slots to be recycled many times over.
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		runProgram(t, data)
	}
}

func FuzzKernelMatchesModel(f *testing.F) {
	for _, seed := range append(modelSeeds, overflowSeed) {
		f.Add(seed)
	}
	f.Fuzz(runProgram)
}

// TestOwnerNameHasOneLiveHolder: a restored event finds its owner by name,
// so a name has at most one live owner — a second registration is a bug in
// the caller — and retiring passes it on: a retired owner retired again must
// not take the name from its successor.
func TestOwnerNameHasOneLiveHolder(t *testing.T) {
	k := NewKernel(1)
	ran := ""
	first := k.Own("conn", func(EventTag) { ran += "first " })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second live owner took a held name")
			}
		}()
		k.Own("conn", func(EventTag) {})
	}()
	first.After(1, EventTag{Kind: "k"})
	first.Retire()
	second := k.Own("conn", func(EventTag) { ran += "second " })
	first.Retire()
	if err := k.RestorePending(PendingEvent{At: 2, Tag: EventTag{Owner: "conn", Kind: "k"}}, 100); err != nil {
		t.Fatalf("the successor lost its name to a repeated Retire: %v", err)
	}
	second.After(3, EventTag{Kind: "k"})
	k.Drain()
	if ran != "second second " || k.Steps() != 3 {
		t.Fatalf("ran %q in %d steps, want the successor twice in 3", ran, k.Steps())
	}
}

// TestObserverTickKeepsTheHeapEmpty: a kernel whose only timer is the
// observer's periodic tick runs 1 000 ticks without a heap entry, and counts
// them — steps, sequence numbers, instants — exactly as the same chain armed
// by an ordinary owner, through the heap.
func TestObserverTickKeepsTheHeapEmpty(t *testing.T) {
	run := func(arm func(k *Kernel, fire func(EventTag)) *Owner) (steps, seq uint64, now Time, heapUsed bool) {
		k := NewKernel(1)
		var o *Owner
		ticks := 0
		o = arm(k, func(EventTag) {
			heapUsed = heapUsed || len(k.heap) > 0
			if ticks++; ticks < 1000 {
				o.After(10*Millisecond, EventTag{Kind: "tick"})
			}
		})
		o.After(10*Millisecond, EventTag{Kind: "tick"})
		heapUsed = len(k.heap) > 0
		k.Drain()
		if ticks != 1000 {
			t.Fatalf("%d ticks ran, want 1000", ticks)
		}
		return k.Steps(), k.Seq(), k.Now(), heapUsed
	}
	steps, seq, now, heapUsed := run(func(k *Kernel, fire func(EventTag)) *Owner { return k.Observe("oracles", fire) })
	if heapUsed {
		t.Error("the observer's tick went through the heap")
	}
	wSteps, wSeq, wNow, _ := run(func(k *Kernel, fire func(EventTag)) *Owner { return k.Own("oracles", fire) })
	if steps != wSteps || seq != wSeq || now != wNow || steps != 1000 {
		t.Fatalf("observer: steps=%d seq=%d now=%v; owner through the heap: steps=%d seq=%d now=%v",
			steps, seq, now, wSteps, wSeq, wNow)
	}
}

// TestOneObserverPerKernel: the tick entry holds one owner's event, so a
// second observer is refused, as a second live owner of a name is, and so is
// arming the observer while its event is pending.
func TestOneObserverPerKernel(t *testing.T) {
	k := NewKernel(1)
	o := k.Observe("oracles", func(EventTag) {})
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a second observer", func() { k.Observe("shadow", func(EventTag) {}) })
	tm := o.After(1, EventTag{Kind: "tick"})
	mustPanic("a second pending observer event", func() { o.After(2, EventTag{Kind: "tick"}) })
	tm.Cancel()
	o.After(2, EventTag{Kind: "tick"}) // a canceled event gives its entry up
	k.Drain()
	if k.Steps() != 1 || len(k.free)+1 != len(k.slots) {
		t.Fatalf("steps=%d, %d of %d slots free: want 1 and all but the observer's", k.Steps(), len(k.free), len(k.slots))
	}
}

// TestStaleTimerCannotCancelRecycledSlot is the hazard slot reuse creates:
// a handle kept past its event's firing points at a slot that now belongs
// to someone else, and canceling it must not cancel the new occupant.
func TestStaleTimerCannotCancelRecycledSlot(t *testing.T) {
	k := NewKernel(1)
	old := k.Schedule(1, func() {})
	k.Drain()
	fired := false
	fresh := k.Schedule(1, func() { fired = true })
	if fresh.slot != old.slot {
		t.Fatalf("the freed slot %d was not reused (got %d): the test no longer bites", old.slot, fresh.slot)
	}
	if old.Pending() || old.Cancel() {
		t.Fatal("a stale handle answered for the slot's new occupant")
	}
	if !fresh.Pending() {
		t.Fatal("the new occupant was canceled through a stale handle")
	}
	k.Drain()
	if !fired {
		t.Fatal("the new occupant never fired")
	}
}

// TestTimerInsideOwnCallback: the slot is released before the callback
// runs, so the handle is already spent there (leasecache's expiry timer
// calls finish, which cancels that very timer) — even once a re-arm has
// taken the slot over.
func TestTimerInsideOwnCallback(t *testing.T) {
	k := NewKernel(1)
	var tm, rearm Timer
	ran := false
	tm = k.Schedule(1, func() {
		if tm.Pending() || tm.Cancel() {
			t.Error("a timer is still pending inside its own callback")
		}
		rearm = k.Schedule(1, func() { ran = true })
		if rearm.slot != tm.slot {
			t.Errorf("re-arm took slot %d, not the slot %d just vacated", rearm.slot, tm.slot)
		}
		if tm.Cancel() {
			t.Error("the spent handle canceled the re-armed event")
		}
	})
	k.Drain()
	if !ran {
		t.Fatal("the re-armed event did not fire")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Pending() || tm.Cancel() {
		t.Fatal("the zero Timer must answer false")
	}
}

// TestBurnedScheduleReturnsInertTimer: under rehydration a schedule before
// the cutoff consumes a sequence number — every later event keeps its
// full-replay identity — schedules nothing, and hands back the zero Timer.
func TestBurnedScheduleReturnsInertTimer(t *testing.T) {
	k := NewKernel(1)
	k.BeginRehydrate(10)
	tm := k.At(5, func() { t.Error("a burned event fired") })
	k.atDeliver(5, func(*Message) { t.Error("a burned delivery fired") }, &Message{}, k.newLane())
	k.EndRehydrate()
	if tm != (Timer{}) || tm.Pending() || tm.Cancel() {
		t.Fatalf("burned schedule returned %+v, want the inert zero Timer", tm)
	}
	if k.Seq() != 2 || k.Pending() != 0 || len(k.slots) != 0 {
		t.Fatalf("after two burns: seq=%d pending=%d slots=%d, want 2, 0, 0", k.Seq(), k.Pending(), len(k.slots))
	}
	k.Drain()
}

// TestScheduleAndFireAllocateNothing pins the event path: on a warm kernel
// an event costs no allocation in any of its three forms.
func TestScheduleAndFireAllocateNothing(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	deliver := func(*Message) {}
	m := &Message{}
	fired := 0
	o := k.Own("o", func(EventTag) { fired++ })
	tag := EventTag{Kind: "k", Key: "key", N: 7, Epoch: 3}
	ln := k.newLane()
	for i := 0; i < 64; i++ { // warm: grow the slot table, free list and heap
		k.Schedule(Duration(i), fn)
	}
	k.Drain()
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(3, fn)
		o.After(2, tag).Cancel()
		o.After(2, tag)
		k.atDeliver(k.Now().Add(1), deliver, m, ln)
		k.Drain()
	})
	if allocs != 0 {
		t.Fatalf("schedule + fire allocates %v per run, want 0", allocs)
	}
	if fired != 1001 { // AllocsPerRun warms up with one extra run
		t.Fatalf("the owner ran %d of its 1001 uncanceled events", fired)
	}
}
