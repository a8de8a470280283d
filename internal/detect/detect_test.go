package detect

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

func TestSketchQuantiles(t *testing.T) {
	var s Sketch
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i) * 0.01) // 0.01 .. 10
	}
	if s.N() != 1000 {
		t.Fatalf("N = %d, want 1000", s.N())
	}
	p50 := s.Quantile(0.5)
	if p50 < 2.5 || p50 > 10 {
		t.Fatalf("p50 = %v, want ≈5 within one octave split", p50)
	}
	p95 := s.Quantile(0.95)
	if p95 < p50 {
		t.Fatalf("p95 %v < p50 %v", p95, p50)
	}
	if got := s.Mean(); math.Abs(got-5.005) > 1e-9 {
		t.Fatalf("mean = %v, want 5.005 exactly (running sum)", got)
	}
}

func TestSketchEdgeValues(t *testing.T) {
	var s Sketch
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-9, 1e12} {
		s.Observe(v)
	}
	if s.N() != 6 {
		t.Fatalf("N = %d, want 6 (degenerate values still count)", s.N())
	}
}

func TestSketchMerge(t *testing.T) {
	var a, b, both Sketch
	rng := stats.NewRNG(11)
	for i := 0; i < 500; i++ {
		v := rng.Exp(1)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	a.Merge(&b)
	if a.N() != both.N() || a.counts != both.counts {
		t.Fatal("merged sketch differs from the sketch of the combined stream")
	}
	if math.Abs(a.sum-both.sum) > 1e-9*both.sum {
		t.Fatalf("merged sum %v vs combined-stream sum %v", a.sum, both.sum)
	}
}

func TestRateWindowRotation(t *testing.T) {
	var w rateWindow
	w.reset(16, 16) // 1s buckets
	for i := 0; i < 10; i++ {
		w.observe(float64(i)) // one event per second, t=0..9
	}
	if got := w.count(9); got != 10 {
		t.Fatalf("count(9) = %d, want 10", got)
	}
	// At t=20 the events at t=0..4 have rotated out (window [4,20)).
	if got := w.count(20); got != 5 {
		t.Fatalf("count(20) = %d, want 5", got)
	}
	// Far future clears everything.
	if got := w.count(1e6); got != 0 {
		t.Fatalf("count(1e6) = %d, want 0", got)
	}
}

// aggressive returns a config with small warm-up gates so unit tests
// flag quickly.
func aggressive() Config {
	cfg := DefaultConfig()
	cfg.MinObs = 6
	cfg.MinGaps = 5
	cfg.Baseline.DefaultRate = 0.5
	return cfg
}

func TestRegularProbingFlags(t *testing.T) {
	d := New(aggressive())
	var v Verdict
	flagged := false
	d.OnFlag(func(got Verdict) { v, flagged = got, true })
	// Pathologically regular probing at 0.1s gaps, but at a LOW rate
	// (windowed count stays near the benign expectation is impossible at
	// 10/s — so spread it: 1 probe per 1.0s is only z≈2.3; use 1/0.9s
	// with tiny jitterless gaps → regularity must catch it first).
	for i := 0; i < 8; i++ {
		d.Observe(3, float64(i)*0.9, math.NaN(), false)
	}
	if !flagged {
		t.Fatal("regular probing not flagged")
	}
	if v.Reason != ReasonRegularity {
		t.Fatalf("reason = %q, want %q", v.Reason, ReasonRegularity)
	}
	if v.Source != 3 {
		t.Fatalf("source = %d, want 3", v.Source)
	}
	if got, ok := d.IsFlagged(3); !ok || got.Reason != v.Reason || got.Obs != v.Obs {
		t.Fatalf("IsFlagged = %+v,%v — want the OnFlag verdict %+v", got, ok, v)
	}
}

func TestPoissonTrafficNotFlagged(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	rng := stats.NewRNG(7)
	// 32 benign sources at their baseline rate for 10 windows.
	for src := 0; src < 32; src++ {
		t0 := 0.0
		for t0 < 10*cfg.WindowSec {
			t0 += rng.Exp(cfg.Baseline.DefaultRate)
			d.Observe(src, t0, math.NaN(), rng.Bernoulli(0.5))
		}
	}
	if n := len(d.Verdicts()); n != 0 {
		t.Fatalf("benign Poisson traffic flagged %d sources: %+v", n, d.Verdicts())
	}
}

func TestRateBurstFlags(t *testing.T) {
	cfg := aggressive()
	cfg.RegularityCVMax = 0 // isolate the rate scorer
	d := New(cfg)
	rng := stats.NewRNG(3)
	// Aggressive probing: 50 probes/s with randomized gaps (CV≈1, so
	// regularity would stay silent even if enabled).
	t0 := 0.0
	for i := 0; i < 200; i++ {
		t0 += rng.Exp(50)
		d.Observe(9, t0, 4.07, false)
	}
	v, ok := d.IsFlagged(9)
	if !ok {
		t.Fatal("50/s probing burst not flagged")
	}
	if v.Reason != ReasonRate {
		t.Fatalf("reason = %q, want %q", v.Reason, ReasonRate)
	}
	if v.Obs > 100 {
		t.Fatalf("flag took %d observations, want well under 100", v.Obs)
	}
}

func TestMissSkewFlags(t *testing.T) {
	cfg := aggressive()
	cfg.RegularityCVMax = 0
	cfg.RateZ = 1e9 // isolate the skew scorer
	cfg.MissSkewZ = 5
	cfg.Baseline.MissFrac = 0.3
	d := New(cfg)
	rng := stats.NewRNG(5)
	t0 := 0.0
	for i := 0; i < 400; i++ {
		t0 += rng.Exp(2)
		d.Observe(1, t0, 4.07, false) // all misses vs benign 30%
	}
	v, ok := d.IsFlagged(1)
	if !ok {
		t.Fatal("all-miss stream not flagged by skew scorer")
	}
	if v.Reason != ReasonMissSkew {
		t.Fatalf("reason = %q, want %q", v.Reason, ReasonMissSkew)
	}
}

func TestNilDetectorSafe(t *testing.T) {
	var d *Detector
	d.Observe(1, 0, 1, true)
	d.ObserveRTT(1, 1)
	d.OnFlag(nil)
	d.SetTelemetry(nil)
	d.Merge(New(DefaultConfig()))
	if d.Sources() != 0 || d.Score(1) != 0 || d.TopOffenders(5) != nil || d.Verdicts() != nil {
		t.Fatal("nil detector must report empty state")
	}
	if _, ok := d.IsFlagged(1); ok {
		t.Fatal("nil detector flagged a source")
	}
	if s := d.Snap(5); s.SourcesTracked != 0 {
		t.Fatal("nil detector snapshot not empty")
	}
}

func TestMaxSourcesDrop(t *testing.T) {
	cfg := aggressive()
	cfg.MaxSources = 4
	reg := telemetry.NewRegistry()
	d := New(cfg)
	d.SetTelemetry(reg)
	for src := 0; src < 10; src++ {
		d.Observe(src, float64(src), math.NaN(), false)
	}
	if d.Sources() != 4 {
		t.Fatalf("tracking %d sources, want cap 4", d.Sources())
	}
	if got := reg.Counter("detect_sources_dropped_total").Value(); got != 6 {
		t.Fatalf("dropped counter = %d, want 6", got)
	}
	if got := reg.Gauge("detect_sources_tracked").Value(); got != 4 {
		t.Fatalf("tracked gauge = %d, want 4", got)
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(aggressive())
	d.SetTelemetry(reg)
	for i := 0; i < 10; i++ {
		d.Observe(2, float64(i)*0.5, 4.07, false)
	}
	if got := reg.Counter("detect_observations_total").Value(); got != 10 {
		t.Fatalf("observations = %d, want 10", got)
	}
	if _, ok := d.IsFlagged(2); !ok {
		t.Fatal("regular 0.5s probing not flagged")
	}
	if got := reg.Counter("detect_flagged_total", "reason", ReasonRegularity).Value(); got != 1 {
		t.Fatalf("flagged{regularity} = %d, want 1", got)
	}
}

func TestTopOffendersAndHTTP(t *testing.T) {
	d := New(aggressive())
	rng := stats.NewRNG(2)
	// Two benign-ish sources and one regular prober.
	t0, t1 := 0.0, 0.0
	for i := 0; i < 40; i++ {
		t0 += rng.Exp(0.5)
		d.Observe(0, t0, 0.087, true)
		t1 += rng.Exp(0.5)
		d.Observe(1, t1, 4.07, false)
	}
	for i := 0; i < 20; i++ {
		d.Observe(7, float64(i)*0.5, 4.07, false)
	}
	top := d.TopOffenders(2)
	if len(top) != 2 {
		t.Fatalf("TopOffenders(2) returned %d rows", len(top))
	}
	if top[0].Source != 7 || !top[0].Flagged {
		t.Fatalf("top offender = %+v, want flagged source 7", top[0])
	}
	if top[0].RTTp50Ms < 2 || top[0].RTTp50Ms > 8 {
		t.Fatalf("prober p50 RTT = %v ms, want ≈4.07 within a bucket", top[0].RTTp50Ms)
	}

	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/detect?n=1", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.SourcesTracked != 3 || snap.Flagged != 1 || len(snap.Top) != 1 {
		t.Fatalf("snapshot = %+v, want 3 tracked / 1 flagged / 1 top row", snap)
	}
	if !strings.Contains(rec.Body.String(), `"reason": "regularity"`) {
		t.Fatalf("snapshot missing flag reason:\n%s", rec.Body.String())
	}
}

func TestMergeFoldsState(t *testing.T) {
	// Default warm-up gates: MinGaps 5 makes the EWMA CV noisy enough to
	// fluke-flag a benign Poisson source, which would confuse the
	// flag-stickiness assertions below.
	cfg := DefaultConfig()
	cfg.MinObs = 6
	a, b := New(cfg), New(cfg)
	reg := telemetry.NewRegistry()
	a.SetTelemetry(reg)
	// Replica a: benign source 0. Replica b: the same source plus a
	// flagged prober on source 5.
	rng := stats.NewRNG(9)
	t0 := 0.0
	for i := 0; i < 30; i++ {
		t0 += rng.Exp(0.5)
		a.Observe(0, t0, 0.087, true)
	}
	t0 = 0.0
	for i := 0; i < 20; i++ {
		t0 += rng.Exp(0.5)
		b.Observe(0, t0, 0.087, true)
	}
	for i := 0; i < 20; i++ {
		b.Observe(5, float64(i)*0.5, 4.07, false)
	}
	if _, ok := b.IsFlagged(5); !ok {
		t.Fatal("setup: replica b did not flag source 5")
	}

	a.Merge(b)
	if a.Sources() != 2 {
		t.Fatalf("merged sources = %d, want 2", a.Sources())
	}
	v, ok := a.IsFlagged(5)
	if !ok || v.Reason != ReasonRegularity {
		t.Fatalf("merge lost the flag: %+v, %v", v, ok)
	}
	var row0 SourceSummary
	for _, r := range a.TopOffenders(10) {
		if r.Source == 0 {
			row0 = r
		}
	}
	if row0.Observations != 50 {
		t.Fatalf("merged source-0 observations = %d, want 50", row0.Observations)
	}
	// A replica's flag surfaces on the aggregate's instruments — the
	// flowtop "flagged" figure is this counter.
	if got := reg.Counter("detect_flagged_total", "reason", ReasonRegularity).Value(); got != 1 {
		t.Fatalf("detect_flagged_total{regularity} after merge = %d, want 1", got)
	}
	// Merging twice keeps flags sticky (no double count).
	a.Merge(b)
	if got := a.Snap(0).Flagged; got != 1 {
		t.Fatalf("flagged after double merge = %d, want 1", got)
	}
	if got := reg.Counter("detect_flagged_total", "reason", ReasonRegularity).Value(); got != 1 {
		t.Fatalf("detect_flagged_total{regularity} after double merge = %d, want 1", got)
	}
}

func TestMergeWelfordMoments(t *testing.T) {
	cfg := aggressive()
	cfg.MinObs = 1 << 30 // never flag; pure moment accounting
	a, b, whole := New(cfg), New(cfg), New(cfg)
	rng := stats.NewRNG(21)
	ta, tb, tw := 0.0, 0.0, 0.0
	for i := 0; i < 200; i++ {
		g := rng.Exp(1)
		if i < 100 {
			ta += g
			a.Observe(0, ta, math.NaN(), false)
		} else {
			tb += g
			b.Observe(0, tb, math.NaN(), false)
		}
	}
	// The combined stream sees the same 200 gap values (split across
	// replicas the first gap of each replica is lost, so compare moments
	// of the union of gaps instead: rebuild from the same draws).
	rng = stats.NewRNG(21)
	for i := 0; i < 200; i++ {
		g := rng.Exp(1)
		tw += g
		whole.Observe(0, tw, math.NaN(), false)
	}
	a.Merge(b)
	sa, sw := a.sources[0], whole.sources[0]
	// a∪b saw 198 gaps (each replica loses its first observation's gap),
	// whole saw 199; means must agree to sampling precision.
	if sa.gapN != 198 {
		t.Fatalf("merged gapN = %d, want 198", sa.gapN)
	}
	if math.Abs(sa.gapMean-sw.gapMean) > 0.05*sw.gapMean {
		t.Fatalf("merged gap mean %v vs whole-stream %v", sa.gapMean, sw.gapMean)
	}
	cvA, cvW := sa.gapCV(), sw.gapCV()
	if math.Abs(cvA-cvW) > 0.1 {
		t.Fatalf("merged CV %v vs whole-stream %v", cvA, cvW)
	}
}

func TestScoreMonotoneAndSticky(t *testing.T) {
	d := New(aggressive())
	count := 0
	d.OnFlag(func(Verdict) { count++ })
	for i := 0; i < 200; i++ {
		d.Observe(4, float64(i)*0.5, 4.07, false)
	}
	if count != 1 {
		t.Fatalf("OnFlag fired %d times, want exactly once (sticky)", count)
	}
	if s := d.Score(4); s < 1 {
		t.Fatalf("flagged source score = %v, want ≥1", s)
	}
}

// sameDetector fails unless a and b hold identical state: config, every
// per-source state (rate-window buckets by content), verdicts, flag and
// drop counts.
func sameDetector(t *testing.T, label string, a, b *Detector) {
	t.Helper()
	if !reflect.DeepEqual(a.cfg, b.cfg) {
		t.Fatalf("%s: config %+v vs %+v", label, a.cfg, b.cfg)
	}
	if len(a.sources) != len(b.sources) {
		t.Fatalf("%s: %d sources vs %d", label, len(a.sources), len(b.sources))
	}
	for src, sa := range a.sources {
		sb := b.sources[src]
		if sb == nil || !reflect.DeepEqual(*sa, *sb) {
			t.Fatalf("%s: source %d state\n%+v\nvs\n%+v", label, src, sa, sb)
		}
	}
	if va, vb := a.Verdicts(), b.Verdicts(); !reflect.DeepEqual(va, vb) {
		t.Fatalf("%s: verdicts %+v vs %+v", label, va, vb)
	}
	if a.flagged != b.flagged || a.dropped != b.dropped {
		t.Fatalf("%s: flagged/dropped %d/%d vs %d/%d", label, a.flagged, a.dropped, b.flagged, b.dropped)
	}
}

// feedMixed drives d with a regular prober on source 5 (which flags)
// between irregular observations of sources 0–8 — more than the test
// configs track, so some are dropped — all drawn from seed.
func feedMixed(d *Detector, seed int64) {
	rng := stats.NewRNG(seed)
	for i := 0; i < 300; i++ {
		now, src := float64(i)*0.25, 5 // the prober: every other tick
		if i%2 == 1 {
			now += rng.Float64() * 0.2
			src = rng.Intn(9)
		}
		d.Observe(src, now, 0.05+rng.Float64()*5, rng.Bernoulli(0.4))
		if i%7 == 0 {
			d.ObserveRTT(src, rng.Float64())
		}
	}
}

// TestResetMatchesNew: a detector restarted with Reset(cfg) behaves
// exactly as New(cfg) — same verdicts, scores, per-source state and
// Merge result — whatever config and traffic it served before, rate
// windows of a different bucket count included; and it keeps nothing of
// its old run: no flag callback, no instruments.
func TestResetMatchesNew(t *testing.T) {
	base := aggressive()
	base.MaxSources = 7
	narrow, wide := base, base
	narrow.WindowSec, narrow.Buckets = 5, 4
	wide.WindowSec, wide.Buckets = 20, 32
	cfgs := []Config{narrow, base, wide}
	for _, prev := range cfgs {
		for _, cfg := range cfgs {
			label := "Buckets " + strconv.Itoa(prev.Buckets) + " -> " + strconv.Itoa(cfg.Buckets)
			reg := telemetry.NewRegistry()
			d := New(prev)
			d.SetTelemetry(reg)
			stale := 0
			d.OnFlag(func(Verdict) { stale++ })
			feedMixed(d, 1)
			if stale == 0 || d.dropped == 0 {
				t.Fatalf("%s: setup flagged %d and dropped %d, want both > 0", label, stale, d.dropped)
			}
			flags, observed := stale, reg.Counter("detect_observations_total").Value()

			d.Reset(cfg)
			fresh := New(cfg)
			feedMixed(d, 2)
			feedMixed(fresh, 2)
			sameDetector(t, label, d, fresh)
			for src := 0; src < 9; src++ {
				if a, b := d.Score(src), fresh.Score(src); a != b {
					t.Fatalf("%s: source %d score %v, want %v", label, src, a, b)
				}
			}
			if stale != flags {
				t.Fatalf("%s: the old flag callback fired %d more times after Reset", label, stale-flags)
			}
			if n := reg.Counter("detect_observations_total").Value(); n != observed {
				t.Fatalf("%s: the old registry counted %d observations after Reset", label, n-observed)
			}

			// A recycled aggregate merging a recycled replica matches a
			// fresh aggregate merging a fresh one.
			agg := New(prev)
			feedMixed(agg, 3)
			agg.Reset(cfg)
			freshAgg := New(cfg)
			agg.Merge(d)
			freshAgg.Merge(fresh)
			sameDetector(t, label+" merged", agg, freshAgg)
		}
	}
}
