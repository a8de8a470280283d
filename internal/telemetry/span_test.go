package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	if id := r.Start(1, 0, "x", "n", 0); id != 0 {
		t.Fatalf("nil recorder Start = %d, want 0", id)
	}
	r.End(0, 1)
	r.Annotate(0, 1, 2, "d")
	if r.NewTrace() != 0 || r.Len() != 0 || r.Spans() != nil || r.Drain() != nil {
		t.Fatal("nil recorder is not inert")
	}
}

func TestSpanRecorderTree(t *testing.T) {
	r := NewSpanRecorder(16)
	tr := r.NewTrace()
	root := r.Start(tr, 0, "trial", "experiment", 0)
	probe := r.Start(tr, root, "probe", "switch", 1)
	ctl := r.Start(tr, probe, "controller.decision", "controller", 1.5)
	r.Annotate(probe, 3, 7, "q=1")
	r.End(ctl, 2)
	r.End(probe, 2.5)
	r.End(root, 3)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	forest := BuildSpanForest(spans)
	if len(forest) != 1 {
		t.Fatalf("got %d roots, want 1", len(forest))
	}
	if forest[0].Span.Name != "trial" || len(forest[0].Children) != 1 {
		t.Fatalf("bad root: %+v", forest[0])
	}
	p := forest[0].Children[0]
	if p.Span.Flow != 3 || p.Span.Rule != 7 || p.Span.Detail != "q=1" {
		t.Fatalf("annotations lost: %+v", p.Span)
	}
	if len(p.Children) != 1 || p.Children[0].Span.Name != "controller.decision" {
		t.Fatalf("controller span not nested under probe: %+v", p)
	}
	if got := p.Span.Duration(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("probe duration = %v, want 1.5", got)
	}
}

func TestSpanRecorderDrain(t *testing.T) {
	r := NewSpanRecorder(8)
	tr := r.NewTrace()
	id := r.Start(tr, 0, "a", "", 0)
	r.End(id, 1)
	first := r.Drain()
	if len(first) != 1 || r.Len() != 0 {
		t.Fatalf("drain left %d spans, returned %d", r.Len(), len(first))
	}
	id2 := r.Start(r.NewTrace(), 0, "b", "", 2)
	if id2 == id {
		t.Fatal("span IDs reused across Drain")
	}
	if len(r.Spans()) != 1 {
		t.Fatal("recorder unusable after Drain")
	}
}

func TestSpanRecorderCap(t *testing.T) {
	r := NewSpanRecorder(2)
	tr := r.NewTrace()
	a := r.Start(tr, 0, "a", "", 0)
	b := r.Start(tr, 0, "b", "", 0)
	c := r.Start(tr, 0, "c", "", 0)
	if a == 0 || b == 0 {
		t.Fatal("spans under cap rejected")
	}
	if c != 0 {
		t.Fatalf("span over cap accepted: %d", c)
	}
	r.End(c, 5) // must be a no-op, not a panic
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.NewTrace()
			for i := 0; i < 100; i++ {
				id := r.Start(tr, 0, "op", "node", float64(i))
				r.Annotate(id, i, -1, "")
				r.End(id, float64(i)+1)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d, want 800", r.Len())
	}
}

func TestRegistryEnableSpans(t *testing.T) {
	var nilReg *Registry
	if nilReg.EnableSpans(8) != nil || nilReg.Spans() != nil {
		t.Fatal("nil registry returned a live span recorder")
	}
	reg := NewRegistry()
	if reg.Spans() != nil {
		t.Fatal("spans enabled by default")
	}
	sr := reg.EnableSpans(8)
	if sr == nil || reg.Spans() != sr || reg.EnableSpans(8) != sr {
		t.Fatal("EnableSpans not idempotent")
	}
	id := sr.Start(sr.NewTrace(), 0, "x", "", 0)
	sr.End(id, 1)
	if got := len(reg.Snapshot().Spans); got != 1 {
		t.Fatalf("snapshot has %d spans, want 1", got)
	}
}

func TestFilterWideEventsKindAndN(t *testing.T) {
	kinds := []string{"probe.hit", "probe.miss", "probe.hit", "packet_in", "probe.hit"}
	events := make([]WideEvent, len(kinds))
	for i, k := range kinds {
		events[i] = NewWideEvent(k)
		events[i].Seq = int64(i)
	}
	got := FilterWideEvents(events, "probe.hit", 0)
	if len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 4 {
		t.Fatalf("kind filter: %+v", got)
	}
	got = FilterWideEvents(events, "probe.hit", 2)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 4 {
		t.Fatalf("kind+n filter: %+v", got)
	}
	got = FilterWideEvents(events, "", 2)
	if len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("n-only filter: %+v", got)
	}
	if got := FilterWideEvents(events, "nope", 0); len(got) != 0 {
		t.Fatalf("unknown kind returned %d events", len(got))
	}
	if got := FilterWideEvents(events, "", 0); len(got) != len(events) {
		t.Fatal("no-op filter dropped events")
	}
}

func TestDebugEventsQueryFilters(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	lines := func(url string) []string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(string(body))
		if trimmed == "" {
			return nil
		}
		return strings.Split(trimmed, "\n")
	}

	if got := lines(srv.URL + "/debug/events"); len(got) != 0 {
		t.Fatalf("events disabled but served %d lines", len(got))
	}
	l := reg.EnableEvents(64)
	for i := 0; i < 5; i++ {
		e := NewWideEvent("probe.hit")
		if i%2 == 1 {
			e = NewWideEvent("probe.miss")
		}
		e.Flow = i
		l.Emit(e)
	}
	if got := lines(srv.URL + "/debug/events"); len(got) != 5 {
		t.Fatalf("unfiltered: %d lines, want 5", len(got))
	}
	got := lines(srv.URL + "/debug/events?kind=probe.miss")
	if len(got) != 2 {
		t.Fatalf("kind filter: %d lines, want 2", len(got))
	}
	var e WideEvent
	if err := json.Unmarshal([]byte(got[0]), &e); err != nil || e.Kind != "probe.miss" || e.Flow != 1 {
		t.Fatalf("bad filtered event %q: %v", got[0], err)
	}
	if got := lines(srv.URL + "/debug/events?n=3"); len(got) != 3 {
		t.Fatalf("n filter: %d lines, want 3", len(got))
	}
	if got := lines(srv.URL + "/debug/events?kind=probe.hit&n=1"); len(got) != 1 {
		t.Fatalf("kind+n filter: %d lines, want 1", len(got))
	}
	if got := lines(srv.URL + "/debug/events?n=bogus"); len(got) != 5 {
		t.Fatalf("malformed n: %d lines, want 5 (ignored)", len(got))
	}
	if got := lines(srv.URL + "/debug/spans"); len(got) != 0 {
		t.Fatalf("spans disabled but served %d lines", len(got))
	}

	sr := reg.EnableSpans(8)
	sr.End(sr.Start(sr.NewTrace(), 0, "x", "", 0), 1)
	if got := lines(srv.URL + "/debug/spans"); len(got) != 1 {
		t.Fatalf("spans: %d lines, want 1", len(got))
	}
}

func TestHistogramQuantileDegenerate(t *testing.T) {
	// Empty histogram: all quantiles zero, snapshot JSON-encodable.
	h := NewHistogram(MillisecondBuckets())
	s := h.Snapshot()
	if s.Summary.P50 != 0 || s.Summary.P95 != 0 || s.Summary.P99 != 0 {
		t.Fatalf("empty histogram quantiles: %+v", s.Summary)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("empty snapshot not JSON-encodable: %v", err)
	}

	// Single sample: every quantile is that sample, nothing NaN/Inf.
	h = NewHistogram(MillisecondBuckets())
	h.Observe(0.42)
	s = h.Snapshot()
	for _, q := range []float64{s.Summary.P50, s.Summary.P95, s.Summary.P99} {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("single-sample quantile not finite: %+v", s.Summary)
		}
		if math.Abs(q-0.42) > 1e-12 {
			t.Fatalf("single-sample quantile = %v, want 0.42", q)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("single-sample snapshot not JSON-encodable: %v", err)
	}

	// Hand-built snapshot with unfilled (zero-value) Summary but nonzero
	// counts — the shape a racy read or external decoder can produce.
	raw := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 1, 0}}
	raw.Summary.Min = math.Inf(1)
	raw.Summary.Max = math.Inf(-1)
	for _, q := range []float64{raw.quantile(0.5), raw.quantile(0.95), raw.quantile(0.99)} {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("degenerate snapshot quantile not finite: %v", q)
		}
	}
}

func TestSpanRecorderSetWallClock(t *testing.T) {
	r := NewSpanRecorder(16)
	r.SetWallClock(func() int64 { return 42 })
	id := r.Start(r.NewTrace(), 0, "a", "n", 0)
	if got := r.Spans()[0].WallNs; got != 42 {
		t.Fatalf("WallNs = %d, want 42", got)
	}
	r.End(id, 1)

	r.SetWallClock(nil)
	r.Start(1, 0, "b", "n", 0)
	spans := r.Spans()
	if spans[1].WallNs != 0 {
		t.Fatalf("nil clock stamped WallNs = %d, want 0", spans[1].WallNs)
	}
}

// TestSpanRecorderImport verifies the parallel-assembly merge: importing
// two per-trial recorders' spans in order must reproduce exactly the ID
// and trace sequence a single shared recorder would have allocated.
func TestSpanRecorderImport(t *testing.T) {
	// Shared recorder: two "trials" recorded back to back.
	shared := NewSpanRecorder(0)
	shared.SetWallClock(nil)
	recordTrial := func(r *SpanRecorder) {
		tr := r.NewTrace()
		root := r.Start(tr, 0, "trial", "n", 0)
		child := r.Start(tr, root, "probe", "n", 1)
		r.End(child, 2)
		r.End(root, 3)
	}
	recordTrial(shared)
	recordTrial(shared)
	want := shared.Spans()

	// Per-trial recorders merged via Import.
	merged := NewSpanRecorder(0)
	merged.SetWallClock(nil)
	for i := 0; i < 2; i++ {
		local := NewSpanRecorder(0)
		local.SetWallClock(nil)
		recordTrial(local)
		merged.Import(local.Drain())
	}
	got := merged.Spans()

	if len(got) != len(want) {
		t.Fatalf("span counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d differs:\n shared %+v\n merged %+v", i, want[i], got[i])
		}
	}
	// Counters must stay monotone past the import so later Starts don't
	// collide with imported IDs.
	next := merged.Start(merged.NewTrace(), 0, "after", "n", 0)
	if int64(next) != int64(len(want))+1 {
		t.Fatalf("post-import Start allocated ID %d, want %d", next, len(want)+1)
	}
}

func TestSpanRecorderImportNilAndEmpty(t *testing.T) {
	var nilRec *SpanRecorder
	nilRec.Import([]Span{{ID: 1}}) // must not panic
	r := NewSpanRecorder(4)
	r.Import(nil)
	if r.Len() != 0 {
		t.Fatalf("empty import retained %d spans", r.Len())
	}
}
