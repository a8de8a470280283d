package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flowrecon/internal/stats"
)

// TestObserveLostIsNoObservation: a lost probe leaves the belief state
// untouched — same posterior, zero gain, no cache side effect — while
// still being recorded as a step.
func TestObserveLostIsNoObservation(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)

	withLoss := sel.NewBeliefTracker()
	clean := sel.NewBeliefTracker()

	step := withLoss.ObserveLost(1)
	if !step.Lost {
		t.Fatal("lost step not marked Lost")
	}
	if step.Prior != step.Posterior {
		t.Fatalf("lost probe moved the posterior: %v -> %v", step.Prior, step.Posterior)
	}
	if step.GainBits != 0 {
		t.Fatalf("lost probe realized gain %v, want 0", step.GainBits)
	}
	if withLoss.Prior() != clean.Prior() {
		t.Fatalf("tracker posterior changed: %v vs %v", withLoss.Prior(), clean.Prior())
	}

	// A real observation after the loss must match a tracker that never
	// saw the lost probe: dropped probes apply no cache side effect.
	sLoss := withLoss.Observe(2, true)
	sClean := clean.Observe(2, true)
	if math.Abs(sLoss.Posterior-sClean.Posterior) > 1e-12 {
		t.Fatalf("lost probe perturbed later inference: %v vs %v", sLoss.Posterior, sClean.Posterior)
	}
	if math.Abs(sLoss.PathProb-sClean.PathProb) > 1e-12 {
		t.Fatalf("lost probe perturbed path prob: %v vs %v", sLoss.PathProb, sClean.PathProb)
	}
	if sLoss.Index != 1 {
		t.Fatalf("step index = %d, want 1 (the lost step still counts)", sLoss.Index)
	}
}

// TestBeliefStepLostFieldOmitted: fault-free recordings stay byte-stable —
// the lost marker only appears on lost steps.
func TestBeliefStepLostFieldOmitted(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	tr := sel.NewBeliefTracker()

	delivered, err := json.Marshal(tr.Observe(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(delivered), `"lost"`) {
		t.Fatalf("delivered step serialized a lost field: %s", delivered)
	}
	lost, err := json.Marshal(tr.ObserveLost(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lost), `"lost":true`) {
		t.Fatalf("lost step missing lost marker: %s", lost)
	}
}

// TestDecideWithLossMatchesDecideWhenNothingLost: with an all-false loss
// mask the loss-tolerant path must agree with plain Decide on every
// outcome vector.
func TestDecideWithLossMatchesDecideWhenNothingLost(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	rng := stats.NewRNG(1)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, outcomes := range [][]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		want := a.Decide(outcomes, rng)
		got := a.DecideWithLoss(outcomes, []bool{false, false}, rng)
		if got != want {
			t.Fatalf("outcomes %v: DecideWithLoss %v, Decide %v", outcomes, got, want)
		}
	}
}

// TestDecideWithLossPartialLoss: losing one probe of two yields the
// posterior conditioned on only the delivered observation — bit-identical
// to a belief-tracker replay that skips the lost index, however often the
// selector's pooled tracker is reused in between.
func TestDecideWithLossPartialLoss(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	probes := a.Probes()
	rng := stats.NewRNG(1)
	for round := 0; round < 3; round++ {
		for lostIdx := range probes {
			for _, kept := range []bool{false, true} {
				outcomes, lost := []bool{!kept, !kept}, []bool{false, false}
				outcomes[1-lostIdx], lost[lostIdx] = kept, true
				tr := sel.NewBeliefTracker()
				for i, f := range probes {
					if lost[i] {
						tr.ObserveLost(f)
					} else {
						tr.Observe(f, outcomes[i])
					}
				}
				if got := sel.posteriorAfter(probes, outcomes, lost); !sameBits(got, tr.Prior()) {
					t.Fatalf("lost %v outcomes %v: pooled posterior %v, tracker replay %v", lost, outcomes, got, tr.Prior())
				}
				want := tr.Prior() > 0.5
				if got := a.DecideWithLoss(outcomes, lost, rng); got != want {
					t.Fatalf("lost %v outcomes %v: verdict %v, tracker replay wants %v (posterior %v)", lost, outcomes, got, want, tr.Prior())
				}
			}
		}
	}
}

// TestDecideWithLossAllLost: when every probe is lost the attacker falls
// back to its prior, deterministically.
func TestDecideWithLossAllLost(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	want := 1-sel.PAbsent() > 0.5
	if got := a.DecideWithLoss([]bool{true, true}, []bool{true, true}, rng); got != want {
		t.Fatalf("all-lost verdict %v, want prior-based %v", got, want)
	}
	// Stale outcome bits under the lost mask must not leak into the verdict.
	if got := a.DecideWithLoss([]bool{false, false}, []bool{true, true}, rng); got != want {
		t.Fatalf("all-lost verdict depends on masked outcome bits")
	}
}
