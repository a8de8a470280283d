package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
)

// PosteriorAfter returns P(X̂ = 1 | Q⃗ = outcomes) for any observed
// outcome prefix: full-length outcome vectors read the decision-tree
// leaf directly, shorter prefixes marginalize over the leaves below
// them (P(X̂=1 | prefix) = Σ_leaf P(leaf)·P(X̂=1 | leaf) / P(prefix)).
// ok is false when the prefix is outside the evaluated tree (longer
// than the planned sequence, or a zero-probability branch).
func (e SequenceEval) PosteriorAfter(outcomes []bool) (post float64, ok bool) {
	key := outcomeKey(outcomes)
	if post, ok = e.PosteriorPresent[key]; ok {
		return post, true
	}
	var mass, present float64
	for leaf, p := range e.PathProb {
		if strings.HasPrefix(leaf, key) {
			mass += p
			present += p * e.PosteriorPresent[leaf]
		}
	}
	if mass <= 0 {
		return 0, false
	}
	return present / mass, true
}

// TestBeliefTrackerMatchesSequenceEval checks the run-time belief update
// against the planning-time joint, which conditions through the same
// model kernels: for every ordered pair of distinct fig2c flows and one
// three-probe sequence, replaying each outcome vector through a
// BeliefTracker must land every step on the decision tree's posterior for
// that prefix, and the last step on the leaf's posterior and path
// probability.
func TestBeliefTrackerMatchesSequenceEval(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	seqs := [][]flows.ID{{1, 2, 0}}
	for a := range cfg.Rates {
		for b := range cfg.Rates {
			if a != b {
				seqs = append(seqs, []flows.ID{flows.ID(a), flows.ID(b)})
			}
		}
	}
	for _, fs := range seqs {
		eval := sel.EvaluateSequence(fs)
		for code := 0; code < 1<<uint(len(fs)); code++ {
			outcomes := make([]bool, len(fs))
			for i := range outcomes {
				outcomes[i] = code&(1<<uint(len(fs)-1-i)) != 0
			}
			tr := sel.NewBeliefTracker()
			if got, want := tr.Prior(), 1-sel.PAbsent(); math.Abs(got-want) > 1e-12 {
				t.Fatalf("initial prior = %v, want %v", got, want)
			}
			var last BeliefStep
			for i, hit := range outcomes {
				last = tr.Observe(fs[i], hit)
				if last.Index != i {
					t.Fatalf("%v outcomes %v: step %d has index %d", fs, outcomes, i, last.Index)
				}
				want, ok := eval.PosteriorAfter(outcomes[:i+1])
				if ok && math.Abs(last.Posterior-want) > 1e-9 {
					t.Fatalf("%v outcomes %v: step %d posterior %v, tree %v", fs, outcomes, i, last.Posterior, want)
				}
			}
			key := outcomeKey(outcomes)
			if want := eval.PosteriorPresent[key]; math.Abs(last.Posterior-want) > 1e-9 {
				t.Fatalf("%v outcomes %v: tracker posterior %v, leaf posterior %v", fs, outcomes, last.Posterior, want)
			}
			if want := eval.PathProb[key]; math.Abs(last.PathProb-want) > 1e-9 {
				t.Fatalf("%v outcomes %v: tracker path prob %v, want %v", fs, outcomes, last.PathProb, want)
			}
		}
	}
}

func TestBeliefStepFields(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	tr := sel.NewBeliefTracker()
	step := tr.Observe(1, true)
	if step.Index != 0 || step.Probe != 1 || !step.Hit {
		t.Fatalf("identity fields wrong: %+v", step)
	}
	if step.Posterior < 0 || step.Posterior > 1 {
		t.Fatalf("posterior out of range: %v", step.Posterior)
	}
	if math.Abs(step.EntropyBits-binEntropy(step.Posterior)) > 1e-12 {
		t.Fatalf("entropy %v for posterior %v", step.EntropyBits, step.Posterior)
	}
	if math.Abs(step.GainBits-(binEntropy(step.Prior)-binEntropy(step.Posterior))) > 1e-12 {
		t.Fatalf("gain %v inconsistent with prior/posterior", step.GainBits)
	}
	if len(step.TopStates) == 0 || len(step.TopStates) > BeliefTrackerTopK {
		t.Fatalf("top states: %v", step.TopStates)
	}
	var sum float64
	prev := math.Inf(1)
	for _, sp := range step.TopStates {
		if sp.P > prev+1e-12 {
			t.Fatalf("top states not sorted: %v", step.TopStates)
		}
		prev = sp.P
		sum += sp.P
	}
	if sum > 1+1e-9 {
		t.Fatalf("top-state mass %v > 1", sum)
	}
	if _, err := json.Marshal(step); err != nil {
		t.Fatalf("belief step not JSON-encodable: %v", err)
	}
}

func binEntropy(p float64) float64 {
	h := 0.0
	for _, q := range []float64{p, 1 - p} {
		if q > 0 {
			h -= q * math.Log2(q)
		}
	}
	return h
}

func TestTopStates(t *testing.T) {
	d := markov.Dist{0.1, 0, 0.5, 0.2, 0.2}
	top := TopStates(d, 3)
	if len(top) != 3 || top[0].State != 2 {
		t.Fatalf("top = %v", top)
	}
	// Ties break toward the lower index.
	if top[1].State != 3 || top[2].State != 4 {
		t.Fatalf("tie break wrong: %v", top)
	}
	if math.Abs(top[0].P-0.5) > 1e-12 {
		t.Fatalf("normalization wrong: %v", top)
	}
	if TopStates(markov.Dist{0, 0}, 3) != nil {
		t.Fatal("zero-mass dist should yield nil")
	}
	if TopStates(d, 0) != nil {
		t.Fatal("k=0 should yield nil")
	}
}

func TestSequencePosteriorAfterPrefix(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	fs := []flows.ID{1, 2}
	eval := sel.EvaluateSequence(fs)

	// Leaf lookup.
	if post, ok := eval.PosteriorAfter([]bool{true, false}); !ok || post != eval.PosteriorPresent["10"] {
		t.Fatalf("leaf lookup: %v %v", post, ok)
	}
	// Prefix marginalization must match a fresh tracker's belief.
	tr := sel.NewBeliefTracker()
	tr.Observe(fs[0], true)
	post, ok := eval.PosteriorAfter([]bool{true})
	if !ok {
		t.Fatal("prefix lookup failed")
	}
	if math.Abs(post-tr.Prior()) > 1e-9 {
		t.Fatalf("prefix posterior %v, tracker %v", post, tr.Prior())
	}
	// Root prefix = the prior.
	post, ok = eval.PosteriorAfter(nil)
	if !ok || math.Abs(post-(1-sel.PAbsent())) > 1e-9 {
		t.Fatalf("root prefix posterior %v (ok=%v), want prior %v", post, ok, 1-sel.PAbsent())
	}
	// Longer than the plan: not in the tree.
	if _, ok := eval.PosteriorAfter([]bool{true, false, true}); ok {
		t.Fatal("over-long prefix should not resolve")
	}
}

func TestModelAttackerExposesSelector(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var bp BeliefProvider = a
	if bp.Selector() != sel {
		t.Fatal("ModelAttacker.Selector() lost the selector")
	}
}
