package history

import (
	"slices"
	"sort"
)

// logChunk is the number of elements in every chunk of a Log but the last.
const logChunk = 32

// Log is an append-only sequence whose forks share their prefix: the
// elements live in chunks of logChunk, a Fork shares every chunk, and the
// first Append on either side of a fork copies at most the partial tail
// chunk (a fork's view of it is capped at its length, so the side that
// appends in place writes only past what the other side can see). DropFront
// advances a head and releases whole chunks. Appended elements are
// immutable. The zero value is an empty log.
//
// This is the snapshot primitive of the store's history and the apiservers'
// watch windows: a restored fork pays for the chunk it extends, not for
// everything committed before it.
type Log[T any] struct {
	chunks [][]T // every chunk but the last holds logChunk elements
	head   int   // the first live element is chunks[0][head]
	n      int   // live elements
	off    int   // elements dropped over the log's life, forks included
}

// Len returns the number of live elements.
func (l *Log[T]) Len() int { return l.n }

// Offset returns how many elements were dropped from the front over the
// log's life: At(0) is the Offset()-th element ever appended.
func (l *Log[T]) Offset() int { return l.off }

// At returns the i-th live element (0-based).
func (l *Log[T]) At(i int) T {
	p := l.head + i
	return l.chunks[p/logChunk][p%logChunk]
}

// Append adds v at the end: into the tail chunk if this log may write
// there, else into a fresh chunk, which starts with a copy of a partial
// tail.
func (l *Log[T]) Append(v T) {
	last := len(l.chunks) - 1
	switch {
	case last < 0 || len(l.chunks[last]) == logChunk:
		l.chunks = append(l.chunks, append(make([]T, 0, logChunk), v))
	case len(l.chunks[last]) == cap(l.chunks[last]):
		l.chunks[last] = append(append(make([]T, 0, logChunk), l.chunks[last]...), v)
	default:
		l.chunks[last] = append(l.chunks[last], v)
	}
	l.n++
}

// DropFront removes the first k live elements, releasing every chunk the
// head passes.
func (l *Log[T]) DropFront(k int) {
	l.head += k
	l.n -= k
	l.off += k
	for len(l.chunks) > 0 && l.head >= logChunk {
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
		l.head -= logChunk
	}
}

// Fork returns a copy of the log that shares its elements: each side may
// append or drop without the other seeing it.
func (l *Log[T]) Fork() Log[T] {
	f := *l
	if last := len(l.chunks) - 1; last >= 0 {
		f.chunks = append([][]T(nil), l.chunks...)
		f.chunks[last] = slices.Clip(f.chunks[last])
	}
	return f
}

// Search returns the smallest index i in [0, Len()) at which f(At(i)) is
// true, or Len() if there is none; f must be false and then true over the
// log, as for sort.Search.
func (l *Log[T]) Search(f func(T) bool) int {
	return sort.Search(l.n, func(i int) bool { return f(l.At(i)) })
}

// AppendTo appends the live elements from index from on to dst.
func (l *Log[T]) AppendTo(dst []T, from int) []T {
	for p := l.head + from; p < l.head+l.n; {
		c := l.chunks[p/logChunk]
		end := min(len(c), l.head+l.n-p/logChunk*logChunk)
		dst = append(dst, c[p%logChunk:end]...)
		p += end - p%logChunk
	}
	return dst
}
