package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(NewWideEvent("x"))
	l.Append([]WideEvent{NewWideEvent("y")})
	l.SetClock(nil)
	l.SetSink(&bytes.Buffer{})
	if l.Len() != 0 || l.Dropped() != 0 || l.Events() != nil || l.SinkErr() != nil {
		t.Fatal("nil event log is not inert")
	}
}

func TestEventLogSequenceAndRing(t *testing.T) {
	l := NewEventLog(4)
	l.SetClock(nil)
	for i := 0; i < 6; i++ {
		e := NewWideEvent("probe")
		e.Trial = i
		l.Emit(e)
	}
	if l.Len() != 4 || l.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4 and 2", l.Len(), l.Dropped())
	}
	evs := l.Events()
	if evs[0].Trial != 2 || evs[3].Trial != 5 {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	for i, e := range evs {
		if e.Seq != int64(i+3) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+3)
		}
		if e.WallNs != 0 {
			t.Fatalf("SetClock(nil) still stamped WallNs=%d", e.WallNs)
		}
	}
}

func TestEventLogAppendMatchesEmit(t *testing.T) {
	mk := func() []WideEvent {
		var evs []WideEvent
		for i := 0; i < 5; i++ {
			e := NewWideEvent("probe")
			e.Trial = i
			evs = append(evs, e)
		}
		return evs
	}
	one := NewEventLog(0)
	one.SetClock(nil)
	for _, e := range mk() {
		one.Emit(e)
	}
	batch := NewEventLog(0)
	batch.SetClock(nil)
	batch.Append(mk())

	var a, b bytes.Buffer
	if err := one.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := batch.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Append and Emit diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestEventLogSinkStreamsAndDetaches(t *testing.T) {
	l := NewEventLog(0)
	l.SetClock(nil)
	var sink bytes.Buffer
	l.SetSink(&sink)
	e := NewWideEvent("fault.loss")
	e.Node = "netsim"
	l.Emit(e)
	var back WideEvent
	if err := json.Unmarshal(sink.Bytes(), &back); err != nil {
		t.Fatalf("sink line not JSON: %v (%q)", err, sink.String())
	}
	if back.Kind != "fault.loss" || back.Node != "netsim" || back.Seq != 1 {
		t.Fatalf("sink event mangled: %+v", back)
	}

	l.SetSink(failWriter{})
	l.Emit(NewWideEvent("x"))
	if l.SinkErr() == nil {
		t.Fatal("sink error not surfaced")
	}
	before := l.Len()
	l.Emit(NewWideEvent("y")) // detached sink must not fail further emits
	if l.Len() != before+1 {
		t.Fatal("emit after sink failure lost the event")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestSinkDetachCounter pins the observable half of the detach-by-design
// contract: when the JSONL sink dies, eventlog_sink_detached_total must
// tick exactly once — the detach is silent in the emit path on purpose,
// so the counter is the only live signal that a chaos run stopped
// recording its event stream.
func TestSinkDetachCounter(t *testing.T) {
	reg := NewRegistry()
	l := reg.EnableEvents(8)
	l.SetSink(failWriter{})
	for i := 0; i < 5; i++ {
		l.Emit(NewWideEvent("x"))
	}
	c := reg.Counter("eventlog_sink_detached_total")
	if got := c.Value(); got != 1 {
		t.Fatalf("eventlog_sink_detached_total = %d after a failing sink, want exactly 1", got)
	}
	if l.SinkErr() == nil {
		t.Fatal("SinkErr lost the detach reason")
	}
	// Re-attaching and failing again is a second detach.
	l.SetSink(failWriter{})
	l.Emit(NewWideEvent("y"))
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d after re-attach + second failure, want 2", got)
	}
	// A standalone log without a wired counter stays safe.
	bare := NewEventLog(4)
	bare.SetSink(failWriter{})
	bare.Emit(NewWideEvent("z"))
	if bare.SinkErr() == nil {
		t.Fatal("standalone log lost the sink error")
	}
}

func TestRegistryEnableEvents(t *testing.T) {
	var nilReg *Registry
	if nilReg.EnableEvents(8) != nil || nilReg.Events() != nil {
		t.Fatal("nil registry returned a live event log")
	}
	reg := NewRegistry()
	if reg.Events() != nil {
		t.Fatal("events enabled by default")
	}
	l := reg.EnableEvents(8)
	if l == nil || reg.Events() != l || reg.EnableEvents(8) != l {
		t.Fatal("EnableEvents not idempotent")
	}
}

func TestFilterWideEvents(t *testing.T) {
	var evs []WideEvent
	for i := 0; i < 6; i++ {
		kind := "probe"
		if i%3 == 0 {
			kind = "trial.verdict"
		}
		e := NewWideEvent(kind)
		e.Trial = i
		evs = append(evs, e)
	}
	if got := FilterWideEvents(evs, "trial.verdict", 0); len(got) != 2 || got[1].Trial != 3 {
		t.Fatalf("kind filter: %+v", got)
	}
	if got := FilterWideEvents(evs, "", 2); len(got) != 2 || got[0].Trial != 4 {
		t.Fatalf("n filter: %+v", got)
	}
	if got := FilterWideEvents(evs, "probe", 1); len(got) != 1 || got[0].Trial != 5 {
		t.Fatalf("kind+n filter: %+v", got)
	}
	if got := FilterWideEvents(evs, "", 0); len(got) != 6 {
		t.Fatalf("no-op filter dropped events: %d", len(got))
	}
}

// TestEventLogConcurrent drives emitters, a batch appender, and readers
// (including WriteJSONL) in parallel; run under -race this pins the
// locking discipline.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := NewWideEvent("probe")
				e.Trial = g*200 + i
				l.Emit(e)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			l.Append([]WideEvent{NewWideEvent("batch"), NewWideEvent("batch")})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sb strings.Builder
		for i := 0; i < 50; i++ {
			sb.Reset()
			if err := l.WriteJSONL(&sb); err != nil {
				t.Errorf("WriteJSONL: %v", err)
				return
			}
			l.Len()
			l.Dropped()
		}
	}()
	wg.Wait()
	if got := l.Len(); got != 128 {
		t.Fatalf("ring len = %d, want 128", got)
	}
}

// TestEventLogZeroAllocDisabled pins the disabled instrument's cost:
// emitting into a nil log must not allocate (satisfying the alloc gate).
func TestEventLogZeroAllocDisabled(t *testing.T) {
	var l *EventLog
	e := NewWideEvent("probe")
	if got := testing.AllocsPerRun(100, func() {
		l.Emit(e)
		l.Append(nil)
	}); got != 0 {
		t.Fatalf("disabled event log allocated %.1f/op", got)
	}
}
