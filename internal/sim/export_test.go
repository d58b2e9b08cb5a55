package sim

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Pending returns the number of scheduled, non-canceled events.
func (k *Kernel) Pending() int {
	n := 0
	k.each(func(e heapEntry) {
		if !k.slots[e.slot].canceled {
			n++
		}
	})
	return n
}

// Pending reports whether the timer's callback has neither fired nor been
// canceled. It is false from inside the timer's own callback.
func (t Timer) Pending() bool { return t.live() != nil }

// RemoveDeliveryGates clears all delivery gates.
func (n *Network) RemoveDeliveryGates() { n.gates = nil }

// PartitionOneWay cuts only messages from a to b.
func (n *Network) PartitionOneWay(a, b NodeID) { n.setPartition(a, b, true) }

// LinkQualityOf returns the degradation configured on the directed link
// from->to (the zero value if the link is healthy).
func (n *Network) LinkQualityOf(from, to NodeID) LinkQuality {
	if l := n.links[linkKey{from, to}]; l != nil {
		return l.quality
	}
	return LinkQuality{}
}

// Clone returns a slab-backed copy of src (nil for an empty src).
func (s *Slab[T]) Clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	out := s.alloc(len(src))
	copy(out, src)
	return out
}

// DefaultWorldConfig returns a world with 1ms base latency and 0.5ms
// jitter.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{Seed: 1, Latency: Millisecond, Jitter: Millisecond / 2}
}

// KeepReleased hands every message released from now on to keep instead
// of the spare list, so that none is reused, until the returned function
// restores recycling.
func KeepReleased(keep func(*Message)) (restore func()) {
	keepReleased = keep
	return func() { keepReleased = nil }
}

// Scribble overwrites every field of m a holder reads with nonsense: a
// sequence number no call has, a payload no handler knows, a response to
// no request.
func Scribble(m *Message) {
	m.Seq, m.From, m.To, m.Kind, m.SentAt = ^uint64(0), "poisoned", "poisoned", "poisoned", -1
	m.Payload, m.Method, m.Call, m.Err = poisoned{}, poisonedMethod, ^uint64(0), "poisoned"
}

// poisoned is the payload of a scribbled-over message: no handler knows
// its type.
type poisoned struct{}

var poisonedMethod = NewMethod("poisoned")
