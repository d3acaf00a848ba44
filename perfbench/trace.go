package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"heterohpc/internal/mp"
)

// span is one timed call the benchmark made into a layer's public API.
// Rank is -1 for calls made outside any rank goroutine (world-level calls
// such as Shrink, or a whole job submission).
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Flops and Bytes are the virtual clock's counter deltas over the
	// call — computed operation counts, not hardware measurements.
	Flops float64 `json:"flops,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one pointer test per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do times fn as span name under parent, outside any rank.
func (t *tracer) do(name, parent string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Since(t.t0).Seconds()
	fn()
	t.add(span{Name: name, Parent: parent, Rank: -1, Start: start, End: time.Since(t.t0).Seconds()})
}

// onRank times fn as span name on rank r. With counted set, the span also
// carries the rank clock's flop and byte deltas over the call.
func (t *tracer) onRank(r *mp.Rank, name, parent string, counted bool, fn func()) {
	if t == nil {
		fn()
		return
	}
	f0, b0, _, _ := r.Clock().Counters()
	start := time.Since(t.t0).Seconds()
	fn()
	s := span{Name: name, Parent: parent, Rank: r.ID(), Start: start, End: time.Since(t.t0).Seconds()}
	if counted {
		f1, b1, _, _ := r.Clock().Counters()
		s.Flops, s.Bytes = f1-f0, b1-b0
	}
	t.add(s)
}

// totals sums each span name's busy seconds (over ranks), calls and,
// for counted spans, flops and bytes into per-layer metrics.
func (t *tracer) totals(into map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		into[s.Name+".busy_s"] += s.End - s.Start
		into[s.Name+".calls"]++
		if s.Flops > 0 || s.Bytes > 0 {
			into[s.Name+".flops"] += s.Flops
			into[s.Name+".bytes"] += s.Bytes
		}
	}
}

// write dumps the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
