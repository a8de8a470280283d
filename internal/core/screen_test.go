package core

import (
	"math"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/telemetry"
)

// screenMax is the largest input the screen lemma is stated for:
// probabilities that rounding may have pushed just above 1.
const screenMax = 1 + 1e-12

// checkScreenLemma fails t if ProbeNeverViable rules out (pHit, pAbsent)
// while Evaluate's arithmetic, at conditioned hit probability h0, gives a
// miss posterior above ½.
func checkScreenLemma(t *testing.T, pHit, h0, pAbsent float64) {
	t.Helper()
	if !ProbeNeverViable(pHit, pAbsent) {
		return
	}
	e := jointEval(pHit, h0, pAbsent)
	if e.PostAbsentGivenMiss > 0.5 || e.DetectorViable() {
		t.Fatalf("pHit %v, h0 %v, pAbsent %v: ruled out, but P(absent | miss) = %v (viable %v)",
			pHit, h0, pAbsent, e.PostAbsentGivenMiss, e.DetectorViable())
	}
}

// TestProbeNeverViableBoundary walks the lemma's boundary 1 − pHit = 2·pAbsent
// a few ulps either side, at conditioned hit probabilities from 0 to just
// above 1, and checks that the bound is tight: a probe that misses 1.9
// times as often as the target is absent can be viable.
func TestProbeNeverViableBoundary(t *testing.T) {
	h0s := []float64{0, 1e-300, 1e-12, 0.25, 0.5, 1 - 1e-12, 1, math.Nextafter(1, 2), screenMax}
	ruledOut := 0
	for _, p := range []float64{0, 5e-324, 1e-300, 1e-9, 0.02, 0.1, 1.0 / 3, 0.4, 0.49, 0.5} {
		miss := 2 * p
		for k := 0; k < 8; k++ {
			miss = math.Nextafter(miss, 0)
		}
		for k := 0; k < 16; k++ {
			for _, pHit := range []float64{1 - miss, math.Nextafter(1-miss, 0), math.Nextafter(1-miss, 2)} {
				if pHit < 0 || pHit > screenMax {
					continue
				}
				if ProbeNeverViable(pHit, p) {
					ruledOut++
				}
				for _, h0 := range h0s {
					checkScreenLemma(t, pHit, h0, p)
				}
			}
			miss = math.Nextafter(miss, 2)
		}
	}
	if ruledOut == 0 {
		t.Fatal("no input was ruled out; the walk does not reach the boundary")
	}
	// Tightness: at 1 − pHit = 1.9·pAbsent with h0 = 0 and a likely hit
	// under presence, the probe is a viable detector.
	p := 0.1
	if e := jointEval(1-1.9*p, 0, p); !e.DetectorViable() {
		t.Fatalf("1 − pHit = 1.9·pAbsent: %+v not viable; the lemma's factor 2 is not tight", e)
	}
}

// FuzzProbeNeverViable holds the screen lemma on arbitrary float64
// inputs in [0, 1+1e-12]: whenever ProbeNeverViable rules a probe out,
// Evaluate's arithmetic must not find it viable.
func FuzzProbeNeverViable(f *testing.F) {
	f.Add(0.8, 0.0, 0.1)
	f.Add(0.8, 1.0, 0.1)
	f.Add(1.0, 1.0, 0.0)
	f.Add(0.0, screenMax, 0.5)
	f.Add(0.5, 0.5, 0.25)
	f.Add(1-2*0.3, 1e-300, 0.3)
	f.Fuzz(func(t *testing.T, pHit, h0, pAbsent float64) {
		for _, x := range []float64{pHit, h0, pAbsent} {
			if !(x >= 0 && x <= screenMax) {
				return
			}
		}
		checkScreenLemma(t, pHit, h0, pAbsent)
	})
}

// TestPriorConditionMatchesSelector checks that a selector finished from
// a Prior is the selector NewCompactSelector builds, bit for bit, that
// the Prior's screen reads the finished selector's own hit
// probabilities, and that no chain is evolved twice.
func TestPriorConditionMatchesSelector(t *testing.T) {
	cfg := fig2cConfig(t)
	const steps = 40
	for target := flows.ID(0); target < 3; target++ {
		reg := telemetry.NewRegistry()
		m, err := NewCompactModel(cfg, NewBuilds(reg, false))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPrior(m, target, steps)
		if err != nil {
			t.Fatal(err)
		}
		if n := reg.Histogram("evolve_ns", nil).Count(); n != 1 {
			t.Fatalf("target %d: %d evolutions before Condition, want 1", target, n)
		}
		sel, err := p.Condition()
		if err != nil {
			t.Fatal(err)
		}
		builds, evolves := reg.Histogram("model_build_ms", nil).Count(), reg.Histogram("evolve_ns", nil).Count()
		if builds != 2 || evolves != 2 {
			t.Fatalf("target %d: %d builds and %d evolutions for one selector, want 2 and 2", target, builds, evolves)
		}
		want := newSelector(t, cfg, target, steps)
		for _, f := range want.AllFlows() {
			got, exp := sel.Evaluate(f), want.Evaluate(f)
			if !sameEval(got, exp) {
				t.Fatalf("target %d flow %d: %+v, want %+v", target, f, got, exp)
			}
			if p.NeverViable(f) != ProbeNeverViable(exp.PHit, want.PAbsent()) {
				t.Fatalf("target %d flow %d: the Prior screens a different hit probability", target, f)
			}
			if p.NeverViable(f) && exp.DetectorViable() {
				t.Fatalf("target %d flow %d: screened out but viable: %+v", target, f, exp)
			}
		}
		if p.NoneViable(p.AllFlows()) && func() bool {
			best, _ := want.Best(want.AllFlows())
			return best.DetectorViable()
		}() {
			t.Fatalf("target %d: every flow screened out, yet the optimal probe is viable", target)
		}
	}
	if _, err := NewPrior(mustModel(t, cfg), 3, steps); err == nil {
		t.Fatal("NewPrior accepted a target outside the universe")
	}
	if _, err := NewPrior(mustModel(t, cfg), 0, 0); err == nil {
		t.Fatal("NewPrior accepted a zero-step window")
	}
}

func mustModel(t *testing.T, cfg Config) *CompactModel {
	t.Helper()
	m, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameEval compares two evaluations bit for bit, NaN posteriors included.
func sameEval(a, b ProbeEval) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Flow != b.Flow || !same(a.Gain, b.Gain) || !same(a.PHit, b.PHit) ||
		!same(a.PostAbsentGivenMiss, b.PostAbsentGivenMiss) || !same(a.PostPresentGivenHit, b.PostPresentGivenHit) {
		return false
	}
	for x := range a.Joint {
		for q := range a.Joint[x] {
			if !same(a.Joint[x][q], b.Joint[x][q]) {
				return false
			}
		}
	}
	return true
}
