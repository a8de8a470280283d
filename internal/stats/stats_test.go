package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(7)
	f1 := a.Fork()
	b := NewRNG(7)
	f2 := b.Fork()
	for i := 0; i < 50; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatalf("forks of identical parents diverged at draw %d", i)
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(1)
	const rate = 2.5
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want ≈ %v", rate, mean, 1/rate)
	}
}

func TestExpZeroRate(t *testing.T) {
	g := NewRNG(1)
	if v := g.Exp(0); !math.IsInf(v, 1) {
		t.Fatalf("Exp(0) = %v, want +Inf", v)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = g.Normal(4.07, 1.806)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-4.07) > 0.03 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Stddev-1.806) > 0.03 {
		t.Errorf("stddev = %v", s.Stddev)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{3, 1, 2, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf = %v", cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		cdf := EmpiricalCDF(xs)
		prev := CDFPoint{math.Inf(-1), 0}
		for _, pt := range cdf {
			if pt.X <= prev.X || pt.P < prev.P || pt.P > 1 {
				return false
			}
			prev = pt
		}
		return len(xs) == 0 || cdf[len(cdf)-1].P == 1
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	if q := Quantile(xs, 0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 1 {
		t.Fatalf("q.25 = %v", q)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{-1, 0.1, 0.5, 0.9, 2}, 0, 1, 2)
	if h[0] != 2 || h[1] != 3 {
		t.Fatalf("hist = %v", h)
	}
}

func TestEntropy(t *testing.T) {
	if h := BinaryEntropy(0.5); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(0.5) = %v", h)
	}
	if h := BinaryEntropy(0); h != 0 {
		t.Fatalf("H(0) = %v", h)
	}
	if h := BinaryEntropy(1); h != 0 {
		t.Fatalf("H(1) = %v", h)
	}
	if h := EntropyBits(0.25, 0.25, 0.25, 0.25); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(uniform4) = %v", h)
	}
}

func TestBinaryEntropyBounds(t *testing.T) {
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		h := BinaryEntropy(p)
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConditionalEntropy(t *testing.T) {
	// Independent X, Q: H(X|Q) = H(X).
	joint := [][]float64{{0.15, 0.35}, {0.15, 0.35}} // X uniform, Q = 0.3/0.7
	h := ConditionalEntropyBits(joint)
	if math.Abs(h-1) > 1e-12 {
		t.Fatalf("independent H(X|Q) = %v, want 1", h)
	}
	// Fully determined: H(X|Q) = 0.
	joint = [][]float64{{0.4, 0}, {0, 0.6}}
	if h := ConditionalEntropyBits(joint); h != 0 {
		t.Fatalf("determined H(X|Q) = %v, want 0", h)
	}
	if h := ConditionalEntropyBits(nil); h != 0 {
		t.Fatalf("nil joint H = %v", h)
	}
}

func TestConditionalEntropyReducesEntropy(t *testing.T) {
	// Information can't hurt: H(X|Q) ≤ H(X) for any joint distribution.
	f := func(a, b, c, d float64) bool {
		a, b, c, d = math.Abs(a), math.Abs(b), math.Abs(c), math.Abs(d)
		sum := a + b + c + d
		if sum == 0 || math.IsInf(sum, 0) || math.IsNaN(sum) {
			return true
		}
		joint := [][]float64{{a / sum, b / sum}, {c / sum, d / sum}}
		hx := BinaryEntropy(joint[0][0] + joint[0][1])
		return ConditionalEntropyBits(joint) <= hx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestConditionalEntropyBits2x1MatchesGeneric(t *testing.T) {
	check := func(p0, p1 float64) {
		t.Helper()
		got := ConditionalEntropyBits2x1(p0, p1)
		want := ConditionalEntropyBits([][]float64{{p0}, {p1}})
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("2x1(%v, %v) = %v, generic %v", p0, p1, got, want)
		}
	}
	for _, p := range [][2]float64{{0, 0}, {0.3, 0}, {0, 0.3}, {1e-300, 0.5}, {0.25, 0.75}, {math.NaN(), 0.5}, {-0.1, 0.4}} {
		check(p[0], p[1])
	}
	rng := NewRNG(3)
	for i := 0; i < 10000; i++ {
		check(rng.Float64()*math.Pow(10, -float64(rng.Intn(20))), rng.Float64())
	}
}
