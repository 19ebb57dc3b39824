package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the enclosing span within the op, or -1 for the op's root
// and for probes. Probes are the extra calls of the traced run (root LP,
// BuildModel, CertifyPlan, CanonicalBytes, …); they run outside the op's
// timed span. A derived span is reconstructed from a counter the program
// exports (milp.wall_us) rather than timed by the benchmark.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Probe   bool   `json:"probe,omitempty"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// opTrace collects the spans of one op, timestamped relative to base.
type opTrace struct {
	op    int
	base  time.Time
	spans []span
}

func (t *opTrace) add(parent int, name, layer string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Op: t.op, ID: id, Parent: parent, Name: name, Layer: layer,
		StartNs: start.Sub(t.base).Nanoseconds(), EndNs: end.Sub(t.base).Nanoseconds(),
	})
	return id
}

func (t *opTrace) derived(parent int, name, layer string, start time.Time, d time.Duration) {
	id := t.add(parent, name, layer, start, start.Add(d))
	t.spans[id].Derived = true
}

func (t *opTrace) probe(name, layer string, start, end time.Time) {
	id := t.add(-1, name, layer, start, end)
	t.spans[id].Probe = true
}

// selfTimes returns each layer's self time within the op: every
// non-probe span's duration minus its children's. The op's root is the
// first non-probe span with Parent -1. It fails when a child outlasts its
// parent or the self times do not add up to the root's duration, so
// every op's breakdown accounts for its whole latency.
func (t *opTrace) selfTimes() (map[string]int64, error) {
	self := make([]int64, len(t.spans))
	root := -1
	for i, s := range t.spans {
		if s.Probe {
			continue
		}
		self[i] += s.dur()
		if s.Parent < 0 {
			if root >= 0 {
				return nil, fmt.Errorf("op %d has two root spans", t.op)
			}
			root = i
			continue
		}
		self[s.Parent] -= s.dur()
	}
	if root < 0 {
		return nil, fmt.Errorf("op %d has no root span", t.op)
	}
	layers := make(map[string]int64)
	var sum int64
	for i, s := range t.spans {
		if s.Probe {
			continue
		}
		if self[i] < 0 {
			return nil, fmt.Errorf("op %d: children of span %s outlast it by %d ns", t.op, s.Name, -self[i])
		}
		layers[s.Layer] += self[i]
		sum += self[i]
	}
	if total := t.spans[root].dur(); sum != total {
		return nil, fmt.Errorf("op %d: self times sum to %d ns, op took %d ns", t.op, sum, total)
	}
	return layers, nil
}

// spanLog keeps every op's spans in memory until the run ends. Span
// times count from base, the start of the traced pass.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// op starts the trace of one op.
func (l *spanLog) op(id int) *opTrace { return &opTrace{op: id, base: l.base} }

func (l *spanLog) add(t *opTrace) {
	l.mu.Lock()
	l.spans = append(l.spans, t.spans...)
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
