// Package telemetry is the repository's dependency-free observability
// substrate: a metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms with p50/p95/p99) plus a bounded ring-buffer event
// tracer for timestamped structured events (rule install/evict/timeout,
// packet-in/flow-mod, probe hit/miss, simulator virtual-time steps).
//
// Design rules:
//
//   - Disabled means nil. Every instrument (Counter, Gauge, Histogram,
//     Tracer) is safe to use through a nil pointer, where each method is
//     a no-op guarded by a single nil check. Instrumented code resolves
//     its instruments once (from a possibly-nil *Registry, whose accessor
//     methods also accept a nil receiver) and then calls them
//     unconditionally on the hot path — no branching on configuration,
//     no interface dispatch, no allocation.
//
//   - Enabled means atomic. All instrument updates are lock-free atomic
//     operations, safe for concurrent use; the registry's name→instrument
//     maps take a lock only on first resolution.
//
//   - Exposition is pull-based: Snapshot() for JSON serialization,
//     WritePrometheus for the text format, and Handler for a live
//     /metrics + /debug/trace + pprof endpoint (see http.go).
package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is the disabled telemetry
// configuration: its accessors return nil instruments whose methods are
// no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	tracer     *Tracer
	spans      *SpanRecorder
	events     *EventLog
	notReady   atomic.Bool // readiness flag served by /readyz (zero = ready)
}

// NewRegistry returns an empty registry whose tracer retains up to
// traceCap events (0 disables tracing: Tracer() returns nil).
func NewRegistry(traceCap int) *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	if traceCap > 0 {
		r.tracer = NewTracer(traceCap)
	}
	return r
}

// Series formats a labelled series key as name{k1="v1",k2="v2"}. Labels
// must come in key/value pairs; the result is a valid Prometheus series
// identifier when name and keys are valid metric/label names.
func Series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	b := make([]byte, 0, 64)
	b = append(b, name...)
	b = append(b, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1]) // what %q prints
	}
	b = append(b, '}')
	return string(b)
}

// Counter returns the named counter, creating it on first use. Optional
// labels select one series of a metric family (see Series). Safe on a nil
// registry, where it returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := Series(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Safe on a nil
// registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := Series(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil buckets → DefaultLatencyBuckets).
// Safe on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := Series(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		h = NewHistogram(buckets)
		r.histograms[key] = h
	}
	return h
}

// Tracer returns the registry's event tracer (nil when tracing is
// disabled or the registry itself is nil).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// EnableSpans attaches a causal-span recorder retaining up to cap spans
// and returns it. Safe on a nil registry (returns nil, i.e. the
// disabled recorder). Calling it again returns the existing recorder.
func (r *Registry) EnableSpans(cap int) *SpanRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans == nil {
		r.spans = NewSpanRecorder(cap)
	}
	return r.spans
}

// Spans returns the registry's span recorder (nil when spans are
// disabled or the registry itself is nil).
func (r *Registry) Spans() *SpanRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// EnableEvents attaches a wide-event log retaining up to cap events and
// returns it. Safe on a nil registry (returns nil, i.e. the disabled
// log). Calling it again returns the existing log.
func (r *Registry) EnableEvents(cap int) *EventLog {
	if r == nil {
		return nil
	}
	// Resolve before taking r.mu (Counter locks it too): a sink write
	// error must be visible in /metrics, not only via SinkErr at exit.
	detached := r.Counter("eventlog_sink_detached_total")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		r.events = NewEventLog(cap)
		r.events.SetDetachCounter(detached)
	}
	return r.events
}

// Events returns the registry's wide-event log (nil when disabled or the
// registry itself is nil).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// SetReady flips the readiness flag served by the /readyz endpoint. A
// fresh registry reports ready; daemons flip it false during draining or
// model (re)builds so orchestrators stop routing work at them. Safe on a
// nil registry.
func (r *Registry) SetReady(ready bool) {
	if r == nil {
		return
	}
	r.notReady.Store(!ready)
}

// Ready reports the registry's readiness (a nil registry is ready — the
// disabled configuration must never fail a health check).
func (r *Registry) Ready() bool {
	if r == nil {
		return true
	}
	return !r.notReady.Load()
}

// Snapshot is a point-in-time, JSON-serializable copy of every
// instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
	Spans      []Span                       `json:"spans,omitempty"`
}

// Snapshot captures the current value of every instrument. On a nil
// registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	s.Events = r.tracer.Events()
	s.Spans = r.spans.Spans()
	return s
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
