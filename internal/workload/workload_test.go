package workload

import (
	"math"
	"sort"
	"testing"

	"flowrecon/internal/stats"
	"flowrecon/internal/testutil"
)

func TestValidate(t *testing.T) {
	if err := (PoissonConfig{}).Validate(); err == nil {
		t.Fatal("empty config accepted")
	}
	if err := (PoissonConfig{Rates: []float64{1}, Duration: 0}).Validate(); err == nil {
		t.Fatal("zero duration accepted")
	}
	if err := (PoissonConfig{Rates: []float64{-1}, Duration: 1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := (PoissonConfig{Rates: []float64{0, 1}, Duration: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePoissonOrderedAndBounded(t *testing.T) {
	tr, err := GeneratePoisson(PoissonConfig{Rates: []float64{2, 0.5, 0}, Duration: 50}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	as := tr.Arrivals()
	if !sort.SliceIsSorted(as, func(i, j int) bool { return as[i].Time < as[j].Time }) {
		t.Fatal("trace not time ordered")
	}
	for _, a := range as {
		if a.Time < 0 || a.Time >= 50 {
			t.Fatalf("arrival out of range: %+v", a)
		}
		if a.Flow == 2 {
			t.Fatal("zero-rate flow arrived")
		}
	}
}

func TestGeneratePoissonRates(t *testing.T) {
	const dur = 2000.0
	tr, err := GeneratePoisson(PoissonConfig{Rates: []float64{1.5, 0.25}, Duration: dur}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range tr.Arrivals() {
		counts[int(a.Flow)]++
	}
	if got := float64(counts[0]) / dur; math.Abs(got-1.5) > 0.1 {
		t.Fatalf("flow0 rate = %v", got)
	}
	if got := float64(counts[1]) / dur; math.Abs(got-0.25) > 0.05 {
		t.Fatalf("flow1 rate = %v", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := PoissonConfig{Rates: []float64{1, 2}, Duration: 10}
	a, _ := GeneratePoisson(cfg, stats.NewRNG(5))
	b, _ := GeneratePoisson(cfg, stats.NewRNG(5))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	aa, bb := a.Arrivals(), b.Arrivals()
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

func TestOccurredWithin(t *testing.T) {
	tr := &Trace{arrivals: []Arrival{{1, 0}, {3, 1}, {7, 0}}}
	if !tr.OccurredWithin(0, 8, 2) {
		t.Fatal("arrival at 7 in (6,8] missed")
	}
	if tr.OccurredWithin(0, 6, 2) {
		t.Fatal("no arrival of flow0 in (4,6]")
	}
	if !tr.OccurredWithin(1, 3, 1) {
		t.Fatal("arrival exactly at window end missed")
	}
	if tr.OccurredWithin(1, 5, 2) {
		t.Fatal("(3,5] wrongly includes arrival at 3")
	}
}

func TestUniformRates(t *testing.T) {
	rs := UniformRates(100, stats.NewRNG(2))
	if len(rs) != 100 {
		t.Fatalf("len = %d", len(rs))
	}
	for _, r := range rs {
		if r < 0 || r >= 1 {
			t.Fatalf("rate out of [0,1): %v", r)
		}
	}
}

func TestStepArrivals(t *testing.T) {
	tr := &Trace{arrivals: []Arrival{{0.05, 0}, {0.15, 1}, {0.17, 0}, {0.95, 1}, {2.5, 0}}}
	steps := StepArrivals(tr, 0.1, 10)
	if len(steps) != 10 {
		t.Fatalf("steps = %d", len(steps))
	}
	if len(steps[0]) != 1 || steps[0][0] != 0 {
		t.Fatalf("step0 = %v", steps[0])
	}
	if len(steps[1]) != 2 {
		t.Fatalf("step1 = %v", steps[1])
	}
	if len(steps[9]) != 1 || steps[9][0] != 1 {
		t.Fatalf("step9 = %v", steps[9])
	}
	// Arrival at 2.5 is beyond the 10-step horizon and must be dropped.
	total := 0
	for _, s := range steps {
		total += len(s)
	}
	if total != 4 {
		t.Fatalf("total binned = %d", total)
	}
}

func TestPoissonEmpiricalAbsence(t *testing.T) {
	// P(no arrival of f in window T) should be e^{-λT}: the closed form
	// the paper uses for P(X̂ = 0).
	const (
		lambda = 0.2
		T      = 3.0
		trials = 4000
	)
	rng := stats.NewRNG(123)
	absent := 0
	for i := 0; i < trials; i++ {
		tr, err := GeneratePoisson(PoissonConfig{Rates: []float64{lambda}, Duration: T}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if !tr.OccurredWithin(0, T, T) {
			absent++
		}
	}
	got := float64(absent) / trials
	want := math.Exp(-lambda * T)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("P(absent) = %v, want ≈ %v", got, want)
	}
}

func TestGenerateBurstyMeanRate(t *testing.T) {
	// ON 20% of the time at 5× rate preserves the average rate.
	cfg := BurstConfig{
		Rates:       []float64{0.8},
		Duration:    5000,
		BurstFactor: 5,
		MeanOn:      0.5,
		MeanOff:     2.0,
	}
	tr, err := GenerateBursty(cfg, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(tr.Len()) / cfg.Duration
	if math.Abs(got-0.8) > 0.08 {
		t.Fatalf("bursty long-run rate = %v, want ≈ 0.8", got)
	}
	// Burstiness: the variance of per-second counts must exceed the
	// Poisson variance (= mean) substantially.
	counts := make([]float64, int(cfg.Duration))
	for _, a := range tr.Arrivals() {
		counts[int(a.Time)]++
	}
	s := stats.Summarize(counts)
	if s.Stddev*s.Stddev < 1.5*s.Mean {
		t.Fatalf("trace not bursty: var %v vs mean %v", s.Stddev*s.Stddev, s.Mean)
	}
}

func TestGenerateBurstyValidation(t *testing.T) {
	if _, err := GenerateBursty(BurstConfig{}, stats.NewRNG(1)); err == nil {
		t.Fatal("empty burst config accepted")
	}
	if _, err := GenerateBursty(BurstConfig{Rates: []float64{1}, Duration: 1, BurstFactor: 0.5, MeanOn: 1, MeanOff: 1}, stats.NewRNG(1)); err == nil {
		t.Fatal("burst factor ≤ 1 accepted")
	}
}

func TestGeneratePeriodic(t *testing.T) {
	tr, err := GeneratePeriodic(PoissonConfig{Rates: []float64{2, 0}, Duration: 10}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly ⌊10·2⌋ ± 1 arrivals with uniform phase.
	if n := tr.Len(); n < 19 || n > 21 {
		t.Fatalf("periodic arrivals = %d", n)
	}
	as := tr.Arrivals()
	for i := 1; i < len(as); i++ {
		gap := as[i].Time - as[i-1].Time
		if math.Abs(gap-0.5) > 1e-9 {
			t.Fatalf("gap %d = %v, want 0.5", i, gap)
		}
	}
	if _, err := GeneratePeriodic(PoissonConfig{}, stats.NewRNG(1)); err == nil {
		t.Fatal("bad periodic config accepted")
	}
}

// TestGeneratePoissonSteadyStateAllocs is the allocation gate on the
// per-flow streams and the arrival slice. A call reseeds one pooled child
// stream in place instead of forking a ~4.9 KiB generator per flow, so
// its allocation count must not grow with the flow count; with rates so
// small that no flow arrives, that is checked at 4 and 256 flows. A
// non-empty window presizes its arrival slice from Σλ·T, so the slice and
// the Trace are its only allocations.
func TestGeneratePoissonSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// allocs measures one call and checks that every window is empty or
	// non-empty as the case claims: the flow-count comparison rests on
	// drawing no arrivals, the slice bound on drawing some.
	allocs := func(rates []float64, duration float64, wantEmpty bool) float64 {
		rng := stats.NewRNG(5)
		return testing.AllocsPerRun(50, func() {
			tr, err := GeneratePoisson(PoissonConfig{Rates: rates, Duration: duration}, rng)
			if err != nil || (tr.Len() == 0) != wantEmpty {
				t.Fatalf("GeneratePoisson: %d arrivals, err %v", tr.Len(), err)
			}
		})
	}
	silent := func(flows int) []float64 {
		rates := make([]float64, flows)
		for i := range rates {
			rates[i] = 1e-12
		}
		return rates
	}
	few, many := allocs(silent(4), 1, true), allocs(silent(256), 1, true)
	if few != many {
		t.Fatalf("GeneratePoisson allocs: %v at 4 flows, %v at 256 flows; want independent of flow count", few, many)
	}
	// 8 flows over 5 s: about 20 arrivals a window.
	if window := allocs(UniformRates(8, stats.NewRNG(3)), 5, false); window > 2 {
		t.Fatalf("GeneratePoisson allocates %v per non-empty window, want <= 2 (the slice and the Trace)", window)
	}
}
