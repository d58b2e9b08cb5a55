package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// operation share OpID; Parent is the ID of the enclosing span (-1 for an
// operation's root). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// layer is the span name up to its first dot: module names are the layer
// names ("infra.Build" belongs to layer "infra").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory from the single driver goroutine; they
// are written out once, when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	opID  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op runs fn as the root span of operation id.
func (t *tracer) op(id int, name string, fn func()) time.Duration {
	t.opID = id
	return t.do(name, fn)
}

// do runs fn inside a span named name, a child of the span now open.
func (t *tracer) do(name string, fn func()) time.Duration {
	return t.doAs(func() string { fn(); return name })
}

// doAs is do for a call whose span name depends on its outcome.
func (t *tracer) doAs(fn func() string) time.Duration {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: t.opID})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	name := fn()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].Name, t.spans[id].StartNs, t.spans[id].EndNs = name, int64(start), int64(end)
	return end - start
}

// total sums the duration of every span called name; count says how many
// there are; mean is their ratio.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) mean(name string) time.Duration {
	n := t.count(name)
	if n == 0 {
		return 0
	}
	return t.total(name) / time.Duration(n)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover. Children of one parent never
// overlap (one goroutine, strictly nested), so covered time is their sum.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].layer()] += d
	}
	return out
}

// checkNesting verifies the span file's structural promises: a child lies
// inside its parent's interval and shares its operation id.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d not recorded before it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) not inside parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.OpID != p.OpID {
			return fmt.Errorf("span %d (%s) op_id %d differs from parent's %d", s.ID, s.Name, s.OpID, p.OpID)
		}
	}
	return nil
}

func writeSpans(path, workload string, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
