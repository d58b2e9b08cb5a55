package epochs_test

import (
	"fmt"
	"math/rand"

	"repro/internal/epochs"
	"repro/internal/history"
)

// Example_epochs demonstrates the programming model of paper §6.2: break
// the history H into epochs and guarantee that a service seeing one event
// of an epoch sees all of them. The same lossy notification stream feeds a
// raw consumer and an epoch-bounded one; the raw view tears epochs, the
// bounded one pays recovery pulls and buffering to tear none. BenchmarkE7
// sweeps the epoch size over the same trade-off.
func Example_epochs() {
	// Ground truth: 24 committed events, H = e1..e24.
	full := history.New()
	for i := 1; i <= 24; i++ {
		_ = full.Append(history.Event{Revision: int64(i), Type: history.Put, Key: fmt.Sprintf("/obj-%d", i%4), Time: int64(i) * 100})
	}
	events := full.Events()

	// The network loses 30% of notifications.
	rng := rand.New(rand.NewSource(42))
	dropped := map[int64]bool{}
	for _, e := range events {
		if rng.Float64() < 0.3 {
			dropped[e.Revision] = true
		}
	}
	fmt.Printf("|H| = %d events; the stream drops %d of them\n", len(events), len(dropped))

	// Consumer A: the raw stream, what an informer sees today.
	raw := history.New()
	for _, e := range events {
		if !dropped[e.Revision] {
			_ = raw.Append(e)
		}
	}
	torn := history.CheckEpochVisibility(raw, full, 6)
	fmt.Printf("raw consumer: %d/%d events, %d torn epochs of 6\n", raw.Len(), len(events), len(torn))
	for _, ep := range torn {
		seen := 0
		for _, e := range ep {
			if !dropped[e.Revision] {
				seen++
			}
		}
		fmt.Printf("  revisions %d..%d: saw %d of %d\n", ep[0].Revision, ep[len(ep)-1].Revision, seen, len(ep))
	}

	// Consumer B: the same stream behind an epoch batcher that recovers
	// lost events from the authoritative history.
	fetch := func(from, to int64) []history.Event { return events[from-1 : to] }
	bounded := history.New()
	batcher := epochs.NewBatcher(epochs.Config{Size: 6}, fetch, func(ep []history.Event) {
		for _, e := range ep {
			_ = bounded.Append(e)
		}
	})
	for _, e := range events {
		if !dropped[e.Revision] {
			batcher.Offer(e)
		}
	}
	if err := batcher.Flush(int64(len(events))); err != nil {
		fmt.Println("flush:", err)
	}
	st := batcher.Stats()
	fmt.Printf("epoch-bounded consumer: %d/%d events, %d torn epochs\n",
		bounded.Len(), len(events), len(history.CheckEpochVisibility(bounded, full, 6)))
	fmt.Printf("cost: %d recovery pulls, up to %d epochs buffered\n", st.Recoveries, st.MaxBufferedEpochs)

	// Output:
	// |H| = 24 events; the stream drops 8 of them
	// raw consumer: 16/24 events, 4 torn epochs of 6
	//   revisions 1..6: saw 3 of 6
	//   revisions 7..12: saw 5 of 6
	//   revisions 13..18: saw 5 of 6
	//   revisions 19..24: saw 3 of 6
	// epoch-bounded consumer: 24/24 events, 0 torn epochs
	// cost: 4 recovery pulls, up to 2 epochs buffered
}
