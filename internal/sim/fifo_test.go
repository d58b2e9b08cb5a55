package sim

import (
	"testing"
	"testing/quick"
)

// TestPropertyPerLinkFIFO: regardless of jitter and interleaving across
// links, messages between one (from, to) pair are delivered in send order —
// the stream (TCP) semantics watch channels rely on. A violation of this
// once produced a real bug in this repository: jitter reordered two watch
// pushes and the informer's revision dedup silently dropped the late one.
func TestPropertyPerLinkFIFO(t *testing.T) {
	f := func(seed int64, jitterRaw uint8, nRaw uint8) bool {
		jitter := Duration(jitterRaw%20) * Millisecond
		n := int(nRaw%50) + 10
		k := NewKernel(seed)
		net := NewNetwork(k, Millisecond, jitter)

		type rx struct {
			link string
			seq  int
		}
		var deliveries []rx
		for _, id := range []NodeID{"x", "y"} {
			id := id
			net.Register(id, HandlerFunc(func(m *Message) {
				p := m.Payload.([2]any)
				deliveries = append(deliveries, rx{link: p[0].(string), seq: p[1].(int)})
			}))
		}
		net.Register("a", HandlerFunc(func(*Message) {}))
		net.Register("b", HandlerFunc(func(*Message) {}))

		// Interleave sends on four links with per-link sequence numbers.
		counters := map[string]int{}
		rng := k.Rand()
		links := []struct{ from, to NodeID }{
			{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"},
		}
		for i := 0; i < n; i++ {
			l := links[rng.Intn(len(links))]
			key := string(l.from) + "->" + string(l.to)
			counters[key]++
			net.Send(l.from, l.to, "msg", [2]any{key, counters[key]})
			// Occasionally let time pass so sends span multiple instants.
			if rng.Intn(3) == 0 {
				k.RunFor(Duration(rng.Intn(3)) * Millisecond)
			}
		}
		k.Drain()

		last := map[string]int{}
		for _, d := range deliveries {
			if d.seq != last[d.link]+1 {
				return false
			}
			last[d.link] = d.seq
		}
		total := 0
		for _, c := range counters {
			total += c
		}
		return len(deliveries) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
