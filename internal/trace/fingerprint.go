package trace

import (
	"hash/fnv"
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
// of the interleaving between components.
func (t *Trace) StateHash() uint64 {
	h := fnv.New64a()
	for _, id := range t.Components() {
		h.Write([]byte("@"))
		h.Write([]byte(id))
		for _, d := range t.Deliveries {
			if d.To != id {
				continue
			}
			writeDelivery(h, d)
		}
	}
	h.Write([]byte("#commits"))
	for _, e := range t.Commits {
		h.Write([]byte{byte(e.Type)})
		h.Write([]byte(e.Key))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func writeDelivery(h interface{ Write([]byte) (int, error) }, d Delivery) {
	h.Write([]byte(d.Kind))
	h.Write([]byte{'/'})
	h.Write([]byte(d.Name))
	h.Write([]byte{'/'})
	h.Write([]byte(d.EventType))
	if d.Terminating {
		h.Write([]byte{'!'})
	}
	h.Write([]byte{0})
}
