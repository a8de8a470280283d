package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestSeriesFormatting(t *testing.T) {
	if got := Series("m"); got != "m" {
		t.Fatalf("unlabelled series: %q", got)
	}
	got := Series("m", "a", "1", "b", "x y")
	want := `m{a="1",b="x y"}`
	if got != want {
		t.Fatalf("series: got %q want %q", got, want)
	}
	family, labels := splitSeries(got)
	if family != "m" || labels != `a="1",b="x y"` {
		t.Fatalf("splitSeries: %q %q", family, labels)
	}
	// Label values are quoted exactly as fmt's %q quotes them.
	for _, v := range []string{`q"uote`, "new\nline", "tab\t", "ünï", "\x00\xff"} {
		if got, want := Series("m", "k", v), fmt.Sprintf("m{k=%q}", v); got != want {
			t.Fatalf("series quoting: got %s want %s", got, want)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter: %d", c.Value())
	}
	if reg.Counter("c_total") != c {
		t.Fatal("counter not memoized")
	}
	if reg.Counter("c_total", "k", "v") == c {
		t.Fatal("labelled series aliases unlabelled")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge: %d", g.Value())
	}
}

// TestDisabledPath exercises every instrument through a nil registry: all
// operations must be safe no-ops.
func TestDisabledPath(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := reg.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := reg.Histogram("h", nil)
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if snap := h.Snapshot(); snap.Summary.N != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	l := reg.EnableEvents(8)
	l.Emit(NewWideEvent("x"))
	if l.Len() != 0 || reg.Events().Events() != nil {
		t.Fatal("nil registry's event log recorded")
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInstruments hammers one counter, gauge, histogram, and
// event log from many goroutines; run under -race this is the data-race
// check, and the totals must still be exact.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("h_seconds", nil)
	l := reg.EnableEvents(64)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) * 1e-3)
				if i%100 == 0 {
					l.Emit(NewWideEvent("tick"))
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*per {
		t.Fatalf("counter: %d != %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge: %d", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count: %d", h.Count())
	}
	if got := int64(l.Len()) + l.Dropped(); got != workers*per/100 {
		t.Fatalf("event log retained+dropped: %d", got)
	}
	snap := h.Snapshot()
	var n int64
	for _, b := range snap.Counts {
		n += b
	}
	if n != workers*per {
		t.Fatalf("bucket mass: %d", n)
	}
}

// TestEventLogRingWraparound overfills a small ring: the most recent cap
// events survive in emission order with their global sequence numbers,
// the overwritten ones are counted as dropped, and WriteJSONL serves
// exactly the retained window.
func TestEventLogRingWraparound(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		e := NewWideEvent("e")
		e.Flow = i
		l.Emit(e)
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped: %d", l.Dropped())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained: %d", len(evs))
	}
	for i, e := range evs {
		if e.Flow != 6+i {
			t.Fatalf("event %d: flow %d, want %d", i, e.Flow, 6+i)
		}
		if e.Seq != int64(7+i) { // sequence numbers start at 1
			t.Fatalf("event %d: seq %d", i, e.Seq)
		}
	}
	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines: %d", len(lines))
	}
	var first WideEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Flow != 6 {
		t.Fatalf("jsonl first flow: %d", first.Flow)
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	h := NewHistogram(MillisecondBuckets())
	// Bimodal, like the paper's channel: 90 hits near 0.087 ms, 10 misses
	// near 4 ms.
	for i := 0; i < 90; i++ {
		h.Observe(0.087)
	}
	for i := 0; i < 10; i++ {
		h.Observe(4.07)
	}
	s := h.Snapshot()
	if s.Summary.N != 100 {
		t.Fatalf("n: %d", s.Summary.N)
	}
	wantMean := (90*0.087 + 10*4.07) / 100
	if math.Abs(s.Summary.Mean-wantMean) > 1e-9 {
		t.Fatalf("mean: %g want %g", s.Summary.Mean, wantMean)
	}
	if s.Summary.Min != 0.087 || s.Summary.Max != 4.07 {
		t.Fatalf("min/max: %g %g", s.Summary.Min, s.Summary.Max)
	}
	// p50 must stay in the hit bucket, p99 in the miss bucket.
	if s.Summary.P50 < 0.05 || s.Summary.P50 > 0.1 {
		t.Fatalf("p50: %g", s.Summary.P50)
	}
	if s.Summary.P99 < 1 || s.Summary.P99 > 4.07 {
		t.Fatalf("p99: %g", s.Summary.P99)
	}
	if s.Summary.P50 > s.Summary.P95 || s.Summary.P95 > s.Summary.P99 {
		t.Fatalf("quantiles not monotone: %g %g %g", s.Summary.P50, s.Summary.P95, s.Summary.P99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	s := h.Snapshot()
	if len(s.Counts) != 3 {
		t.Fatalf("counts len: %d", len(s.Counts))
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("counts: %v", s.Counts)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("req_total", "result", "hit").Add(3)
	reg.Counter("req_total", "result", "miss").Add(1)
	reg.Gauge("occupancy").Set(6)
	h := reg.Histogram("delay_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{result="hit"} 3`,
		`req_total{result="miss"} 1`,
		"# TYPE occupancy gauge",
		"occupancy 6",
		"# TYPE delay_seconds histogram",
		`delay_seconds_bucket{le="0.001"} 1`,
		`delay_seconds_bucket{le="0.01"} 2`,
		`delay_seconds_bucket{le="+Inf"} 3`,
		"delay_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// TYPE comment must precede the family's first sample.
	if strings.Index(out, "# TYPE req_total counter") > strings.Index(out, `req_total{result="hit"}`) {
		t.Fatal("TYPE after sample")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total").Add(2)
	reg.Gauge("g").Set(-1)
	reg.Histogram("h_ms", MillisecondBuckets()).Observe(0.1)

	blob, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c_total"] != 2 || back.Gauges["g"] != -1 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Histograms["h_ms"].Summary.N != 1 {
		t.Fatalf("histogram round trip: %+v", back.Histograms["h_ms"])
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Inc()
	reg.EnableEvents(8).Emit(NewWideEvent("packet_in"))
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "hits_total 1") {
		t.Fatalf("/metrics: %q", body)
	}
	if body := get("/debug/events"); !strings.Contains(body, `"kind":"packet_in"`) {
		t.Fatalf("/debug/events: %q", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"hits_total": 1`) {
		t.Fatalf("/debug/vars: %q", body)
	}
}
