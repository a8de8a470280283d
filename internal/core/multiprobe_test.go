package core

import (
	"math"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// pairSearchCase is one generated configuration's selector and the
// candidate list BestSequence searches, as experiment.StandardAttackers
// builds them: every flow in the universe.
type pairSearchCase struct {
	sel        *ProbeSelector
	candidates []flows.ID
}

// pairSearchCases generates count configurations at scale sc, each with
// a random target and window; every tenth zeroes a rate, so some targets
// never occur and every gain is 0.
func pairSearchCases(t *testing.T, sc usumScale, count int, seed int64) []pairSearchCase {
	t.Helper()
	rng := stats.NewRNG(seed)
	out := make([]pairSearchCase, 0, count)
	for i := 0; i < count; i++ {
		delta := []float64{0.025, 0.05, 0.1}[rng.Intn(3)]
		cfg := usumConfig(t, sc, delta, seed+int64(i), i%10 == 9)
		target := flows.ID(rng.Intn(sc.flows))
		sel, err := NewCompactSelector(cfg, target, 5+rng.Intn(200), nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pairSearchCase{sel: sel, candidates: sel.AllFlows()})
	}
	return out
}

// TestBestPairMatchesExhaustive: on 1,000 small-scale and 6 paper-scale
// configurations, the screened pair search picks the pair an exhaustive
// search picks — EvaluateSequence on every ordered pair, keeping the
// first strictly larger gain — and returns its SequenceEval bit for bit.
func TestBestPairMatchesExhaustive(t *testing.T) {
	paper := 6
	if testing.Short() {
		paper = 1
	}
	cases := append(pairSearchCases(t, usumSmall, 1000, 1), pairSearchCases(t, usumPaper, paper, 5000)...)
	ties := 0
	for i, c := range cases {
		got, ok := c.sel.BestSequence(c.candidates, 2)
		want, wantOK := c.sel.bestPairRef(c.candidates)
		if ok != wantOK || !sameSequenceEval(got, want) {
			t.Fatalf("case %d: screened search (%v, %+v), exhaustive (%v, %+v)", i, ok, got, wantOK, want)
		}
		n := 0
		for _, fs := range sequencesOfTwo(c.candidates) {
			if sameBits(c.sel.EvaluateSequence(fs).Gain, want.Gain) {
				n++
			}
		}
		ties += n - 1
	}
	if ties == 0 {
		t.Fatal("no configuration had pairs tied at the best gain; the tie-break is untested")
	}
}

// TestScreenedPairGainBound: every ordered pair's screened gain lies
// within 1e-12 bits of its exact gain, far inside the margin within
// which bestPair re-evaluates pairs exactly.
func TestScreenedPairGainBound(t *testing.T) {
	const bound = 1e-12
	if 2*bound > pairScreenMargin {
		t.Fatalf("margin %g does not cover twice the bound %g", pairScreenMargin, bound)
	}
	cases := append(pairSearchCases(t, usumSmall, 300, 7), pairSearchCases(t, usumPaper, 2, 9000)...)
	worst := 0.0
	for i, c := range cases {
		s := c.sel
		arena := s.arenaFor(2)
		first, hit := &arena.levels[0], &arena.levels[1]
		for _, a := range c.candidates {
			s.firstLevel(a, first, hit)
			miss, hitB := newBranchMass(first.app, first.app0), newBranchMass(hit.app, hit.app0)
			for _, b := range c.candidates {
				if a == b {
					continue
				}
				screened := s.screenGain(s.PriorEntropy(), b, miss, hitB)
				exact := s.EvaluateSequence([]flows.ID{a, b}).Gain
				if d := math.Abs(screened - exact); d > bound {
					t.Fatalf("case %d pair (%d, %d): screened %v, exact %v, |Δ| = %g > %g", i, a, b, screened, exact, d, bound)
				} else {
					worst = max(worst, d)
				}
			}
		}
		s.seqPool.Put(arena)
	}
	t.Logf("largest |screened − exact| over every pair: %g bits", worst)
}
