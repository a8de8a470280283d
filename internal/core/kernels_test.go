package core

import (
	"math"
	"slices"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
)

// The helpers below give tests value-returning forms of the in-place
// model kernels. The probe kernels write into NaN-filled destinations, so
// every test that uses them also checks that each kernel overwrites its
// whole output: a skipped entry would surface as a NaN mass.

// nanDist returns an n-state distribution with every entry NaN.
func nanDist(n int) markov.Dist {
	d := make(markov.Dist, n)
	for i := range d {
		d[i] = math.NaN()
	}
	return d
}

// evolve returns d advanced steps, leaving d untouched.
func evolve(m Model, d markov.Dist, steps int) markov.Dist {
	out := slices.Clone(d)
	m.EvolveInPlace(out, steps)
	return out
}

// splitByHit returns d split by whether probing f hits.
func splitByHit(m Model, d markov.Dist, f flows.ID) (hit, miss markov.Dist) {
	hit, miss = nanDist(len(d)), nanDist(len(d))
	m.SplitByHitInto(d, f, hit, miss)
	return hit, miss
}

// applyProbe returns d transformed by a probe of f with the given outcome.
func applyProbe(m Model, d markov.Dist, f flows.ID, hit bool) markov.Dist {
	out := nanDist(len(d))
	m.ApplyProbeInto(out, d, f, hit)
	return out
}

// TestProbeKernelsOverwriteDestination pins the "fully overwritten"
// contract of both models' probe kernels: writing into NaN-filled and
// into zeroed destinations gives bit-identical results for every flow
// and both outcomes, on the evolved distribution and on its hit and miss
// halves (whose zero entries the kernels skip).
func TestProbeKernelsOverwriteDestination(t *testing.T) {
	cfg := tinyConfig(t)
	basic, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{basic, compact} {
		d := evolve(m, m.InitialDist(), 20)
		n := len(d)
		for f := flows.ID(0); int(f) < len(cfg.Rates); f++ {
			zh, zm := make(markov.Dist, n), make(markov.Dist, n)
			m.SplitByHitInto(d, f, zh, zm)
			nh, nm := splitByHit(m, d, f)
			if !distsBitEqual(zh, nh) || !distsBitEqual(zm, nm) {
				t.Fatalf("%T: SplitByHitInto(flow %d) left destination entries unwritten", m, f)
			}
			for _, src := range []markov.Dist{d, zh, zm} {
				for _, hit := range []bool{false, true} {
					z := make(markov.Dist, n)
					m.ApplyProbeInto(z, src, f, hit)
					if got := applyProbe(m, src, f, hit); !distsBitEqual(z, got) {
						t.Fatalf("%T: ApplyProbeInto(flow %d, hit=%v) left destination entries unwritten", m, f, hit)
					}
				}
			}
		}
	}
}

func distsBitEqual(a, b markov.Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}
