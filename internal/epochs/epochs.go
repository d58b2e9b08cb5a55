// Package epochs implements the programming model sketched in paper §6.2:
// break the history H into epochs and guarantee that a service which sees
// one event of an epoch sees all of them. Within an epoch this eliminates
// staleness and observability gaps by construction; the epoch size trades
// the divergence bound against delivery latency and coordination
// (recovery) cost — the trade-off experiment E7 measures.
package epochs

import (
	"fmt"

	"repro/internal/history"
)

// Config tunes an epoch-bounded delivery layer.
type Config struct {
	// Size is the number of revisions per epoch (>= 1).
	Size int64
}

// Stats counts the batcher's activity.
type Stats struct {
	// EventsIn is the number of events offered (including duplicates).
	EventsIn int
	// EventsOut is the number of events delivered.
	EventsOut int
	// EpochsDelivered is the number of complete epochs released.
	EpochsDelivered int
	// Recoveries is how many times a gap forced a pull of missing events
	// — the coordination cost of the model.
	Recoveries int
	// MaxBufferedEpochs is the high-water mark of epochs withheld while
	// waiting for completeness.
	MaxBufferedEpochs int
}

// Fetcher pulls the authoritative events of a revision span [from, to]
// (inclusive) from the ground truth — the recovery path a real
// implementation would serve from the store. It may return fewer events
// than the span if some revisions touched keys outside the subscription;
// Complete must then be true if every relevant event is included.
type Fetcher func(from, to int64) []history.Event

// Batcher converts a lossy, possibly-duplicated event stream into
// epoch-atomic delivery: downstream consumers receive whole epochs in
// order, never a torn prefix. The zero value is not usable; construct with
// NewBatcher.
type Batcher struct {
	cfg     Config
	fetch   Fetcher
	deliver func([]history.Event)

	buf        map[int64][]history.Event // epoch index -> events seen
	seen       map[int64]bool            // revision -> already buffered
	nextEpoch  int64                     // next epoch index to deliver
	maxRevSeen int64
	stats      Stats
}

// NewBatcher creates a batcher. deliver receives whole epochs, in epoch
// order. fetch is used to recover events the stream lost; it may be nil,
// in which case incomplete epochs block delivery forever (pure buffering
// mode, useful to measure how often recovery would be needed).
func NewBatcher(cfg Config, fetch Fetcher, deliver func([]history.Event)) *Batcher {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	return &Batcher{
		cfg:     cfg,
		fetch:   fetch,
		deliver: deliver,
		buf:     make(map[int64][]history.Event),
		seen:    make(map[int64]bool),
	}
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() Stats { return b.stats }

// epochOf maps a revision to its epoch index (revisions are 1-based).
func (b *Batcher) epochOf(rev int64) int64 { return (rev - 1) / b.cfg.Size }

// epochSpan returns the inclusive revision range of an epoch.
func (b *Batcher) epochSpan(epoch int64) (int64, int64) {
	return epoch*b.cfg.Size + 1, (epoch + 1) * b.cfg.Size
}

// Offer feeds one event from the (lossy) stream. Duplicate revisions are
// ignored. Delivery of complete epochs happens synchronously.
func (b *Batcher) Offer(e history.Event) {
	b.stats.EventsIn++
	if b.seen[e.Revision] || b.epochOf(e.Revision) < b.nextEpoch {
		return
	}
	b.seen[e.Revision] = true
	ep := b.epochOf(e.Revision)
	b.buf[ep] = append(b.buf[ep], e)
	if e.Revision > b.maxRevSeen {
		b.maxRevSeen = e.Revision
	}
	if len(b.buf) > b.stats.MaxBufferedEpochs {
		b.stats.MaxBufferedEpochs = len(b.buf)
	}
	b.pump()
}

// pump delivers every leading complete epoch; when a later epoch has
// events but the next deliverable epoch is incomplete, it attempts
// recovery via the fetcher.
func (b *Batcher) pump() {
	for {
		lo, hi := b.epochSpan(b.nextEpoch)
		if b.maxRevSeen < hi {
			return // epoch not yet closed by the stream
		}
		if !b.completeEpoch(b.nextEpoch) {
			if b.fetch == nil {
				return // cannot recover; hold delivery (bounded divergence!)
			}
			b.stats.Recoveries++
			for _, e := range b.fetch(lo, hi) {
				if !b.seen[e.Revision] {
					b.seen[e.Revision] = true
					b.buf[b.nextEpoch] = append(b.buf[b.nextEpoch], e)
				}
			}
			if !b.completeEpoch(b.nextEpoch) {
				return // authoritative source has gaps too; stay safe
			}
		}
		events := b.buf[b.nextEpoch]
		sortByRevision(events)
		delete(b.buf, b.nextEpoch)
		b.nextEpoch++
		b.stats.EpochsDelivered++
		b.stats.EventsOut += len(events)
		b.deliver(events)
	}
}

// completeEpoch reports whether every revision of the epoch is buffered.
func (b *Batcher) completeEpoch(epoch int64) bool {
	lo, hi := b.epochSpan(epoch)
	for rev := lo; rev <= hi; rev++ {
		if !b.seen[rev] {
			return false
		}
	}
	return true
}

// Flush delivers the trailing partial epoch (used at stream end when the
// producer guarantees no further events will arrive for it). It preserves
// the all-or-nothing property per delivered batch by recovering missing
// events first; without a fetcher an incomplete trailing epoch stays held.
func (b *Batcher) Flush(lastRev int64) error {
	if lastRev <= 0 {
		return nil
	}
	ep := b.epochOf(lastRev)
	lo, _ := b.epochSpan(ep)
	if ep < b.nextEpoch {
		return nil
	}
	if !b.trailingComplete(lo, lastRev) {
		if b.fetch == nil {
			return fmt.Errorf("epochs: trailing epoch %d incomplete and no fetcher", ep)
		}
		b.stats.Recoveries++
		for _, e := range b.fetch(lo, lastRev) {
			if !b.seen[e.Revision] {
				b.seen[e.Revision] = true
				b.buf[ep] = append(b.buf[ep], e)
			}
		}
		if !b.trailingComplete(lo, lastRev) {
			return fmt.Errorf("epochs: trailing epoch %d unrecoverable", ep)
		}
	}
	events := b.buf[ep]
	sortByRevision(events)
	delete(b.buf, ep)
	b.nextEpoch = ep + 1
	b.stats.EpochsDelivered++
	b.stats.EventsOut += len(events)
	b.deliver(events)
	return nil
}

func (b *Batcher) trailingComplete(lo, hi int64) bool {
	for rev := lo; rev <= hi; rev++ {
		if !b.seen[rev] {
			return false
		}
	}
	return true
}

func sortByRevision(events []history.Event) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].Revision < events[j-1].Revision; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}
