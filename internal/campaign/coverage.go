package campaign

import (
	"sync"

	"repro/internal/core"
)

// classStats is the guided scheduler's running view of one predicted
// signature class.
type classStats struct {
	dispatched int // plans handed to workers so far
	completed  int // executions finished
	novel      int // completed executions that produced an unseen signature
}

// schedItem is one pending plan awaiting dispatch.
type schedItem struct {
	// index is the plan's position in the list handed to the scheduler —
	// the strategy's order without learning, the learned (kept or
	// deferred, possibly impact-ranked) order with it. It is the
	// deterministic tie-break coordinate, not the reported plan index.
	index int
	plan  core.Plan
	class string
}

// coverageScheduler hands out plans in coverage-first order. It is the
// fuzzer-style corpus scheduler of the engine's guided mode:
//
//   - a class nobody has tried yet always outranks tried classes (explore
//     the whole predicted-signature space before revisiting any part),
//   - among tried classes, the one with the best observed novelty rate
//     (novel signatures per completed execution, with +1 optimism for
//     in-flight work) goes first — classes that keep hashing to coverage
//     we already have are starved,
//   - among equals, the class with fewer dispatches wins (round-robin),
//     and finally the lowest original plan index (so the strategy's own
//     ranking — causal scores, deletion-first — breaks all remaining ties
//     deterministically).
//
// All methods are safe for concurrent use by pool workers.
type coverageScheduler struct {
	mu      sync.Mutex
	pending []schedItem
	classes map[string]*classStats
	seen    map[Signature]int
	limit   int // max dispatches (0 = unlimited)
	handed  int // dispatches so far
}

// newCoverageScheduler indexes the plan list. limit caps total dispatches
// (the engine's MaxExecutions). preSeen seeds the novelty set with
// signatures earlier campaigns already observed (the cross-campaign
// corpus): classes that keep re-hashing into corpus-known coverage are
// starved from the first round instead of after rediscovering it.
func newCoverageScheduler(plans []planRef, limit int, preSeen []Signature) *coverageScheduler {
	s := &coverageScheduler{
		pending: make([]schedItem, 0, len(plans)),
		classes: make(map[string]*classStats),
		seen:    make(map[Signature]int),
		limit:   limit,
	}
	for _, sig := range preSeen {
		s.seen[sig]++
	}
	for i, p := range plans {
		cls := classOf(p.plan)
		s.pending = append(s.pending, schedItem{index: i, plan: p.plan, class: cls})
		if s.classes[cls] == nil {
			s.classes[cls] = &classStats{}
		}
	}
	return s
}

// next returns the highest-priority pending plan, its dispatch sequence
// number (0-based, dense), and whether anything was dispatched.
func (s *coverageScheduler) next() (schedItem, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 || (s.limit > 0 && s.handed >= s.limit) {
		return schedItem{}, 0, false
	}
	best := 0
	for i := 1; i < len(s.pending); i++ {
		if s.better(s.pending[i], s.pending[best]) {
			best = i
		}
	}
	item := s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)
	s.classes[item.class].dispatched++
	seq := s.handed
	s.handed++
	return item, seq, true
}

// better reports whether a should be dispatched before b.
func (s *coverageScheduler) better(a, b schedItem) bool {
	ca, cb := s.classes[a.class], s.classes[b.class]
	// 1. Unexplored classes first.
	if (ca.dispatched == 0) != (cb.dispatched == 0) {
		return ca.dispatched == 0
	}
	// 2. Higher novelty rate first: (novel+1)/(completed+1), compared
	//    exactly via cross-multiplication.
	ra := (ca.novel + 1) * (cb.completed + 1)
	rb := (cb.novel + 1) * (ca.completed + 1)
	if ra != rb {
		return ra > rb
	}
	// 3. Fewer dispatches first (spread within equal classes).
	if ca.dispatched != cb.dispatched {
		return ca.dispatched < cb.dispatched
	}
	// 4. Strategy order.
	return a.index < b.index
}

// record feeds one completed execution's signature back into the
// scheduler and reports whether the signature was novel.
func (s *coverageScheduler) record(class string, sig Signature) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[sig]++
	novel := s.seen[sig] == 1
	st := s.classes[class]
	st.completed++
	if novel {
		st.novel++
	}
	return novel
}
