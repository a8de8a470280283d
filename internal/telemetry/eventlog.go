package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// WideEvent is one self-contained, wide structured log line: everything
// an operator needs to understand one decision of the system without
// joining against other streams. One event is emitted per probe
// decision, per trial verdict, per injected fault, per control-channel
// reconnect, and per model-cache lookup — the moments the attack's
// behavior pivots on.
//
// Numeric identity fields use -1 for "not applicable" (matching Span);
// string fields are empty when absent. T is in the emitter's time base —
// virtual seconds in the simulator and replay paths, seconds since the
// process epoch on the TCP daemons — and WallNs carries absolute wall
// time when the log's clock is enabled.
type WideEvent struct {
	Seq      int64   `json:"seq"`
	WallNs   int64   `json:"wallNs,omitempty"`
	T        float64 `json:"t"`
	Kind     string  `json:"kind"`
	Node     string  `json:"node,omitempty"`
	Trial    int     `json:"trial"`
	Attacker string  `json:"attacker,omitempty"`
	Flow     int     `json:"flow"`
	Rule     int     `json:"rule"`
	Trace    int64   `json:"trace,omitempty"`
	Outcome  string  `json:"outcome,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
	Truth    string  `json:"truth,omitempty"`
	DelayMs  float64 `json:"delayMs,omitempty"`
	Detail   string  `json:"detail,omitempty"`
}

// NewWideEvent returns an event of the given kind with the identity
// fields at their "not applicable" defaults.
func NewWideEvent(kind string) WideEvent {
	return WideEvent{Kind: kind, Trial: -1, Flow: -1, Rule: -1}
}

// EventLog is a bounded, concurrency-safe stream of WideEvents.
// A nil *EventLog is the disabled instrument: every method is a no-op
// behind a single nil check, and emit sites pay nothing beyond that
// check — no allocation, no lock, no draw.
//
// Retention is a ring of the most recent cap events (older events are
// overwritten; Dropped counts them). An optional sink streams every
// retained event as JSONL the moment it is sequenced, for tailing a
// long run to disk while /debug/events serves the ring.
type EventLog struct {
	mu       sync.Mutex
	seq      int64
	cap      int
	buf      []WideEvent // ring storage, len ≤ cap
	start    int         // index of the oldest retained event
	dropped  int64
	clock    func() int64 // wall-clock source for WallNs; nil = don't stamp
	sink     io.Writer
	sinkErr  error
	detached *Counter // increments once when a write error detaches the sink
}

// NewEventLog returns a log retaining at most cap events (cap ≤ 0
// selects a generous default). Wall stamping is on by default; disable
// it with SetClock(nil) for deterministic output.
func NewEventLog(cap int) *EventLog {
	if cap <= 0 {
		cap = 1 << 14
	}
	return &EventLog{
		cap:   cap,
		clock: func() int64 { return time.Now().UnixNano() },
	}
}

// SetClock replaces the wall-clock source stamped into WallNs. A nil
// clock disables wall stamping, making the log's output a pure function
// of the emitted events — the property the replay-determinism tests pin.
func (l *EventLog) SetClock(clock func() int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.clock = clock
	l.mu.Unlock()
}

// SetSink attaches a streaming JSONL writer receiving every retained
// event as it is sequenced. The first write error detaches the sink and
// is reported by SinkErr.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.sinkErr = nil
	l.mu.Unlock()
}

// SetDetachCounter routes sink-detach occurrences into a counter
// (eventlog_sink_detached_total when wired by Registry.EnableEvents).
// The JSONL sink detaches on its first write error by design — the event
// stream must never take down the run — but before this counter the
// detach was invisible until a SinkErr check at exit: a chaos run with a
// full disk silently recorded nothing. The counter makes the detach show
// up in /metrics and flowtop the moment it happens.
func (l *EventLog) SetDetachCounter(c *Counter) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.detached = c
	l.mu.Unlock()
}

// SinkErr returns the error that detached the sink (nil while healthy).
func (l *EventLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Emit sequences one event into the log, applying the ring bound. Safe
// on a nil log.
func (l *EventLog) Emit(e WideEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.emitLocked(e)
	l.mu.Unlock()
}

// Append sequences a batch in order under one lock acquisition — the
// trial loop's in-order assembly primitive: workers buffer their trial's
// events locally and the collector appends them in trial order, so the
// log is byte-identical at every parallelism level.
func (l *EventLog) Append(events []WideEvent) {
	if l == nil || len(events) == 0 {
		return
	}
	l.mu.Lock()
	for _, e := range events {
		l.emitLocked(e)
	}
	l.mu.Unlock()
}

func (l *EventLog) emitLocked(e WideEvent) {
	l.seq++
	e.Seq = l.seq
	if l.clock != nil {
		e.WallNs = l.clock()
	}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % l.cap
		l.dropped++
	}
	if l.sink != nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = l.sink.Write(line)
		}
		if err != nil {
			l.sinkErr = err
			l.sink = nil
			l.detached.Inc()
		}
	}
}

// Len returns the number of retained events (0 on a nil log).
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Dropped returns how many events the ring bound has overwritten.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the retained events in emission order.
func (l *EventLog) Events() []WideEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]WideEvent, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	out = append(out, l.buf[:l.start]...)
	return out
}

// WriteJSONL writes the retained events one JSON object per line.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// FilterWideEvents applies the /debug/events query semantics: kind != ""
// keeps only events of exactly that kind; n > 0 keeps only the most
// recent n survivors. Emission order is preserved.
func FilterWideEvents(events []WideEvent, kind string, n int) []WideEvent {
	if kind != "" {
		kept := events[:0:0]
		for _, e := range events {
			if e.Kind == kind {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	return events
}
