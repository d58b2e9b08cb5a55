package sim

// Slab is a chunked arena for the short, immutable-once-sent slices the
// actors allocate on every watch push (the same discipline as the
// network's message chunk — and unlike the kernel's event slots, which are
// recycled because only a generation-checked Timer can outlive one):
// instead of one `make` per push, allocations carve capped sub-slices out
// of a chunk and a fresh chunk is made only every slabChunkSize elements.
// Handed-out slices are never reused or reclaimed — holders (in-flight
// messages, recorders, delayed deliveries) stay valid forever — so the
// only effect is fewer, larger allocations.
//
// Slices are handed out with a full slice expression (cap == len), so a
// holder that appends reallocates instead of scribbling over the next
// allocation. The zero value is ready to use. Snapshot restore paths
// construct fresh servers (and therefore fresh zero-value slabs), so
// checkpoint forks never share a chunk.
type Slab[T any] struct {
	chunk []T
}

const slabChunkSize = 256

func (s *Slab[T]) alloc(n int) []T {
	if n > len(s.chunk) {
		size := slabChunkSize
		if n > size {
			size = n
		}
		s.chunk = make([]T, size)
	}
	out := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return out
}

// One returns a slab-backed single-element slice holding v.
func (s *Slab[T]) One(v T) []T {
	out := s.alloc(1)
	out[0] = v
	return out
}
