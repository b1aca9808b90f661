package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one recorded call into a layer. Spans of one pass share a
// trace ID; Parent 0 marks the pass's root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	// Calls and BusyNs are set on roll-up spans, which stand for every
	// call a per-message layer made within one simulated hour: the
	// span runs from the first call's start to the last call's end,
	// and BusyNs is the layer's own time inside it.
	Calls  int64 `json:"calls,omitempty"`
	BusyNs int64 `json:"busy_ns,omitempty"`
}

// tracer keeps a traced run's spans and per-layer tallies in memory
// until the run ends. All methods are no-ops on a nil tracer, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	trace string
	spans []span
	busy  map[string]time.Duration
	count map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), busy: map[string]time.Duration{}, count: map[string]float64{}}
}

// now reads the clock only when tracing.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// pass starts a new trace and returns the ID of its root span, which
// the caller closes with end.
func (t *tracer) pass(name string) int {
	if t == nil {
		return 0
	}
	t.trace = fmt.Sprintf("%016x%016x", t.t0.UnixNano(), len(t.spans)+1)
	now := time.Now()
	return t.record(name, 0, now, now)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t != nil && id != 0 {
		t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	}
}

// layerSpan records a finished call into layer name that started at
// start, adds its duration minus child to the layer's busy time, and
// returns the span's ID.
func (t *tracer) layerSpan(name string, parent int, start time.Time, child time.Duration) (int, time.Duration) {
	if t == nil {
		return 0, 0
	}
	end := time.Now()
	id := t.record(name, parent, start, end)
	d := end.Sub(start)
	t.busy[name] += d - child
	return id, d
}

// record stores a span that ran from start to end.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// rollup records a roll-up span for calls a per-message layer made
// between first and last, with busy of the layer's own time.
func (t *tracer) rollup(name string, parent int, first, last time.Time, calls int64, busy time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: first.Sub(t.t0).Nanoseconds(), End: last.Sub(t.t0).Nanoseconds(),
		Calls: calls, BusyNs: busy.Nanoseconds()})
	t.busy[name] += busy
}

// add bumps a per-layer counter.
func (t *tracer) add(name string, n float64) {
	if t != nil {
		t.count[name] += n
	}
}

// write stores the spans and the per-layer summary as JSON under dir.
// The summary also holds the traced run's end-to-end metrics, whose
// pass_cpu_s against an untraced run's is the tracing overhead.
func (t *tracer) write(dir, stem string, layers, e2e map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	summary, err := json.MarshalIndent(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "layers": layers, "end_to_end_traced": e2e}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".layers.json"), append(summary, '\n'), 0o644)
}

// allocs reads the process's cumulative heap allocation count. It
// stops the world, so traced runs call it around whole calls, never
// per message.
func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
