package trace

import (
	"slices"

	"repro/internal/sim"
)

// This file derives compact behavioural fingerprints from a recorded
// execution. The campaign engine (internal/campaign) uses them as coverage
// signatures: two executions that delivered the same event sequences to
// the same components and committed the same ground-truth history are, for
// bug-finding purposes, the same execution — running a third plan that
// lands in the same class is unlikely to flip any component's decision.

// StateHash folds every component's delivery sequence plus the committed
// ground-truth event sequence into one 64-bit fingerprint. Components are
// visited in sorted order so the hash is independent of map iteration and
// of the interleaving between components. The deliveries are grouped by
// receiver in one pass, each group in trace order.
func (t *Trace) StateHash() uint64 {
	byTo := make(map[sim.NodeID][]int32)
	for i := range t.Deliveries {
		to := t.Deliveries[i].To
		byTo[to] = append(byTo[to], int32(i))
	}
	ids := make([]sim.NodeID, 0, len(byTo))
	for id := range byTo {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := newFNV()
	for _, id := range ids {
		h.str("@")
		h.str(string(id))
		for _, i := range byTo[id] {
			writeDelivery(&h, &t.Deliveries[i])
		}
	}
	h.str("#commits")
	for _, e := range t.Commits {
		h.byte(byte(e.Type))
		h.str(e.Key)
		h.byte(0)
	}
	return uint64(h)
}

func writeDelivery(h *fnv64a, d *Delivery) {
	h.str(string(d.Kind))
	h.byte('/')
	h.str(d.Name)
	h.byte('/')
	h.str(string(d.EventType))
	if d.Terminating {
		h.byte('!')
	}
	h.byte(0)
}

// fnv64a is the 64-bit FNV-1a hash, as hash/fnv's New64a computes it, fed
// strings without converting them to byte slices.
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV() fnv64a { return fnvOffset64 }

func (h *fnv64a) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv64a) byte(b byte) {
	*h ^= fnv64a(b)
	*h *= fnvPrime64
}
