package history

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestLogForksMatchTheirModels drives a family of forked logs through random
// appends, front drops and forks, and checks each one against a plain slice
// after every step: a fork sees its own appends and drops and nobody
// else's, across chunk boundaries and partial tail chunks.
func TestLogForksMatchTheirModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		log   Log[int]
		model []int
		off   int
	}
	logs := []*pair{{}}
	next := 0
	for step := 0; step < 20000; step++ {
		p := logs[rng.Intn(len(logs))]
		switch r := rng.Intn(100); {
		case r < 70:
			p.log.Append(next)
			p.model = append(p.model, next)
			next++
		case r < 85:
			k := rng.Intn(min(len(p.model), 2*logChunk) + 1)
			p.log.DropFront(k)
			p.model = p.model[k:]
			p.off += k
		case len(logs) < 16:
			logs = append(logs, &pair{log: p.log.Fork(), model: slices.Clone(p.model), off: p.off})
		}
		for i, q := range logs {
			if got := q.log.AppendTo(nil, 0); !slices.Equal(got, q.model) || q.log.Len() != len(q.model) || q.log.Offset() != q.off {
				t.Fatalf("step %d, log %d: holds %v (len %d, offset %d), want %v (offset %d)",
					step, i, got, q.log.Len(), q.log.Offset(), q.model, q.off)
			}
		}
	}
	// Every model is strictly increasing, so Search for an element finds
	// its index.
	p := logs[0]
	for from, v := range p.model {
		if got := p.log.AppendTo(nil, from); !slices.Equal(got, p.model[from:]) {
			t.Fatalf("AppendTo(%d) = %v, want %v", from, got, p.model[from:])
		}
		if got := p.log.Search(func(e int) bool { return e >= v }); got != from {
			t.Fatalf("Search for element %d found %d", from, got)
		}
	}
	if got := p.log.Search(func(int) bool { return false }); got != p.log.Len() {
		t.Fatalf("Search for nothing found %d, want Len %d", got, p.log.Len())
	}
}

// A fork shares every chunk: its first append copies the partial tail
// chunk, not the log, so its cost does not grow with what was retained.
func TestLogForkCopiesAtMostTheTailChunk(t *testing.T) {
	var l Log[Event]
	for i := 1; i <= 40*logChunk+7; i++ {
		l.Append(Event{Revision: int64(i)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		f := l.Fork()
		f.Append(Event{Revision: 1 << 40})
	})
	// The fork's chunk table, and one fresh tail chunk.
	if allocs > 2 {
		t.Fatalf("fork + append allocates %v times, want <= 2", allocs)
	}
	if got := l.At(l.Len() - 1).Revision; got != 40*logChunk+7 {
		t.Fatalf("a fork's append leaked into its parent: last revision %d", got)
	}
}

// The parent keeps appending in place into the tail chunk it shares with a
// fork, while the fork is read on another goroutine: the parent writes only
// past what the fork can see, which the race detector holds it to.
func TestLogForkReadWhileParentAppends(t *testing.T) {
	var l Log[int]
	for i := 0; i < logChunk+3; i++ {
		l.Append(i)
	}
	f := l.Fork()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < f.Len(); i++ {
			if f.At(i) != i {
				t.Errorf("fork element %d = %d", i, f.At(i))
			}
		}
	}()
	for i := 0; i < 3*logChunk; i++ {
		l.Append(-1)
	}
	wg.Wait()
}
