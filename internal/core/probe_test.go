package core

import (
	"math"
	"slices"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

// fig2cConfig builds the paper's Figure 2c scenario: rule1 covers {f1,f2}
// (high priority), rule2 covers {f1,f3} (low priority). The paper argues
// the optimal probe for target f1 is f2, because a hit on f2 certifies
// rule1, which only f1 or f2 can install — and f2 is rare.
func fig2cConfig(t *testing.T) Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 6},
		{Name: "rule2", Cover: flows.SetOf(0, 2), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rules:     rs,
		Rates:     []float64{0.35, 0.02, 1.2}, // f1 moderate, f2 rare, f3 noisy
		Delta:     0.25,
		CacheSize: 2,
	}
}

func newSelector(t *testing.T, cfg Config, target flows.ID, steps int) *ProbeSelector {
	t.Helper()
	sel, err := NewCompactSelector(cfg, target, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestSelectorPriors(t *testing.T) {
	cfg := fig2cConfig(t)
	const steps = 40
	sel := newSelector(t, cfg, 0, steps)
	want := math.Exp(-0.35 * 0.25 * steps)
	if math.Abs(sel.PAbsent()-want) > 1e-12 {
		t.Fatalf("PAbsent = %v, want %v", sel.PAbsent(), want)
	}
	if h := sel.PriorEntropy(); h <= 0 || h > 1 {
		t.Fatalf("prior entropy = %v", h)
	}
	if sel.Target() != 0 || sel.Steps() != steps {
		t.Fatal("accessors wrong")
	}
}

func TestSelectorValidation(t *testing.T) {
	cfg := fig2cConfig(t)
	if _, err := NewCompactSelector(cfg, 99, 10, nil); err == nil {
		t.Fatal("out-of-universe target accepted")
	}
	if _, err := NewCompactSelector(cfg, 0, 0, nil); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestEvaluateJointConsistency(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	for _, f := range sel.AllFlows() {
		e := sel.Evaluate(f)
		var total float64
		for x := 0; x < 2; x++ {
			for q := 0; q < 2; q++ {
				if e.Joint[x][q] < -1e-12 {
					t.Fatalf("flow %d: negative joint %v", f, e.Joint)
				}
				total += e.Joint[x][q]
			}
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("flow %d: joint mass = %v", f, total)
		}
		if pa := e.Joint[0][0] + e.Joint[0][1]; math.Abs(pa-sel.PAbsent()) > 1e-9 {
			t.Fatalf("flow %d: P(X̂=0) from joint = %v, want %v", f, pa, sel.PAbsent())
		}
		if e.Gain < 0 {
			t.Fatalf("flow %d: negative information gain %v", f, e.Gain)
		}
		if e.Gain > sel.PriorEntropy()+1e-9 {
			t.Fatalf("flow %d: gain %v exceeds prior entropy %v", f, e.Gain, sel.PriorEntropy())
		}
		if hp := e.Joint[0][1] + e.Joint[1][1]; math.Abs(hp-e.PHit) > 1e-9 {
			t.Fatalf("flow %d: P(Q=1) inconsistent: %v vs %v", f, hp, e.PHit)
		}
	}
}

func TestFigure2cOptimalProbeIsNotTarget(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	best, ok := sel.Best(sel.AllFlows())
	if !ok {
		t.Fatal("no best probe")
	}
	if best.Flow != 1 {
		for _, f := range sel.AllFlows() {
			e := sel.Evaluate(f)
			t.Logf("flow %d: gain=%.4f phit=%.3f", f, e.Gain, e.PHit)
		}
		t.Fatalf("optimal probe = flow %d, want f2 (flow 1) per Figure 2c", best.Flow)
	}
	// And a hit on f2 should strongly indicate the target occurred.
	if best.PostPresentGivenHit < 0.5 {
		t.Fatalf("P(X̂=1 | Q_{f2}=1) = %v", best.PostPresentGivenHit)
	}
}

func TestProbeEvalPosteriors(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	e := sel.Evaluate(1)
	ph := e.PosteriorPresent(true)
	pm := e.PosteriorPresent(false)
	if ph < 0 || ph > 1 || pm < 0 || pm > 1 {
		t.Fatalf("posteriors out of range: %v %v", ph, pm)
	}
	if ph <= pm {
		t.Fatalf("hit posterior %v should exceed miss posterior %v for a positively informative probe", ph, pm)
	}
}

func TestDetectorViable(t *testing.T) {
	e := ProbeEval{PostAbsentGivenMiss: 0.8, PostPresentGivenHit: 0.7}
	if !e.DetectorViable() {
		t.Fatal("viable detector rejected")
	}
	e.PostPresentGivenHit = 0.4
	if e.DetectorViable() {
		t.Fatal("non-viable detector accepted")
	}
}

func TestFlowsExcept(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 10)
	rest := sel.FlowsExcept(0)
	if len(rest) != 2 {
		t.Fatalf("rest = %v", rest)
	}
	for _, f := range rest {
		if f == 0 {
			t.Fatal("excluded flow present")
		}
	}
}

// --- multi-probe ---

// fig2bConfig: rule1 covers f1 (high priority), rule2 covers {f1,f2}. The
// paper's §III-B argument: probing both f1 and f2 and seeing f1 hit while
// f2 misses certifies rule1 and hence f1's occurrence.
func fig2bConfig(t *testing.T) Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 2, Timeout: 6},
		{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rules:     rs,
		Rates:     []float64{0.3, 0.8},
		Delta:     0.25,
		CacheSize: 2,
	}
}

func TestSequenceGainDominatesSingle(t *testing.T) {
	for _, mk := range []func(*testing.T) Config{fig2bConfig, fig2cConfig} {
		cfg := mk(t)
		sel := newSelector(t, cfg, 0, 40)
		single, ok1 := sel.Best(sel.AllFlows())
		pair, ok2 := sel.BestSequence(sel.AllFlows(), 2)
		if !ok1 || !ok2 {
			t.Fatalf("no best probe (%v) or pair (%v)", ok1, ok2)
		}
		if math.IsNaN(pair.Gain) || pair.Gain+1e-9 < single.Gain {
			t.Fatalf("pair gain %v < single gain %v", pair.Gain, single.Gain)
		}
	}
}

func TestSequencePathProbsSumToOne(t *testing.T) {
	cfg := fig2bConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	e := sel.EvaluateSequence([]flows.ID{0, 1})
	var total float64
	for _, p := range e.PathProb {
		if p < -1e-12 {
			t.Fatalf("negative path probability: %v", e.PathProb)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("path probabilities sum to %v", total)
	}
	if len(e.PathProb) != 4 {
		t.Fatalf("paths = %v", e.PathProb)
	}
	for key, post := range e.PosteriorPresent {
		if post < -1e-9 || post > 1+1e-9 {
			t.Fatalf("posterior[%s] = %v", key, post)
		}
	}
}

func TestFigure2bHitMissCertifiesTarget(t *testing.T) {
	cfg := fig2bConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	e := sel.EvaluateSequence([]flows.ID{0, 1})
	// Outcome "10": f1 hit, f2 missed ⇒ rule1 cached and rule2 absent ⇒
	// only f1 itself can have installed rule1 ⇒ the target occurred.
	post := e.PosteriorPresent["10"]
	if post < 0.9 {
		t.Fatalf("P(X̂=1 | f1 hit, f2 miss) = %v, want ≈ 1 (Figure 2b)", post)
	}
	if !e.Decide([]bool{true, false}) {
		t.Fatal("decision tree should declare present for outcome 10")
	}
}

func TestBestSequence(t *testing.T) {
	cfg := fig2bConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	if _, ok := sel.BestSequence(nil, 2); ok {
		t.Fatal("empty candidates accepted")
	}
	if _, ok := sel.BestSequence(sel.AllFlows(), 0); ok {
		t.Fatal("zero probes accepted")
	}
	one, ok := sel.BestSequence(sel.AllFlows(), 1)
	if !ok || len(one.Flows) != 1 {
		t.Fatalf("m=1 sequence = %+v", one)
	}
	two, ok := sel.BestSequence(sel.AllFlows(), 2)
	if !ok || len(two.Flows) != 2 {
		t.Fatalf("m=2 sequence = %+v", two)
	}
	if two.Gain+1e-9 < one.Gain {
		t.Fatal("two probes worse than one")
	}
	three, ok := sel.BestSequence(sel.AllFlows(), 3)
	if !ok {
		t.Fatal("greedy m=3 failed")
	}
	if three.Gain+1e-9 < two.Gain {
		t.Fatal("greedy extension lost information")
	}
}

// --- attackers ---

func TestNaiveAttacker(t *testing.T) {
	a := &NaiveAttacker{TargetFlow: 5}
	if a.Name() != "naive" {
		t.Fatal("name")
	}
	probes := a.Probes()
	if len(probes) != 1 || probes[0] != 5 {
		t.Fatalf("probes = %v", probes)
	}
	if !a.Decide([]bool{true}, nil) || a.Decide([]bool{false}, nil) || a.Decide(nil, nil) {
		t.Fatal("naive decision wrong")
	}
}

func TestModelAttackerSingle(t *testing.T) {
	cfg := fig2cConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 1)
	if err != nil {
		t.Fatal(err)
	}
	probes := a.Probes()
	if len(probes) != 1 || probes[0] != 1 {
		t.Fatalf("probes = %v (expected the Figure 2c optimum)", probes)
	}
	if a.singleOK.Flow != 1 {
		t.Fatal("planned eval missing")
	}
	for _, hit := range []bool{false, true} {
		if got, want := a.Decide([]bool{hit}, nil), a.singleOK.PosteriorPresent(hit) > 0.5; got != want {
			t.Fatalf("outcome hit=%v: verdict %v, posterior threshold says %v", hit, got, want)
		}
	}

	// Over a 4-step window the optimum passes the §VI-B detector-viability
	// filter, and thresholding the posterior at ½ returns the query
	// result — the paper's "return the result of query f".
	short, err := NewModelAttacker(newSelector(t, cfg, 0, 4), sel.AllFlows(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !short.singleOK.DetectorViable() {
		t.Fatalf("4-step Figure 2c optimum is not a viable detector: %+v", short.singleOK)
	}
	if !short.Decide([]bool{true}, nil) || short.Decide([]bool{false}, nil) {
		t.Fatal("posterior decision disagrees with the query result on a viable detector")
	}
}

func TestModelAttackerMulti(t *testing.T) {
	cfg := fig2bConfig(t)
	sel := newSelector(t, cfg, 0, 40)
	a, err := NewModelAttacker(sel, sel.AllFlows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Probes()) != 2 {
		t.Fatalf("probes = %v", a.Probes())
	}
	// Smoke-test decisions for all outcomes.
	for _, outcomes := range [][]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		_ = a.Decide(outcomes, nil)
	}
	if _, err := NewModelAttacker(sel, nil, 1); err == nil {
		t.Fatal("no candidates accepted")
	}
	if _, err := NewModelAttacker(sel, sel.AllFlows(), 0); err == nil {
		t.Fatal("zero probes accepted")
	}
}

func TestRandomAttacker(t *testing.T) {
	a := &RandomAttacker{PPresent: 0.75}
	if a.Name() != "random" || a.Probes() != nil {
		t.Fatal("random attacker shape")
	}
	rng := stats.NewRNG(4)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if a.Decide(nil, rng) {
			n++
		}
	}
	if got := float64(n) / trials; math.Abs(got-0.75) > 0.02 {
		t.Fatalf("P(present) = %v", got)
	}
}

// TestConditionedChainClosedForm cross-checks the conditional-chain
// construction: with the target's rate zeroed, the conditioned chain must
// never cache a rule only the target could install.
func TestConditionedChainClosedForm(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "only-target", Cover: flows.SetOf(0), Priority: 2, Timeout: 5},
		{Name: "other", Cover: flows.SetOf(1), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.5, 0.5}, Delta: 0.2, CacheSize: 2}
	m0, err := NewCompactModel(cfg.withoutFlow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := evolve(m0, m0.InitialDist(), 50)
	if p := m0.CachedProbability(d, 0); p != 0 {
		t.Fatalf("conditioned chain cached the target-only rule with P=%v", p)
	}
	if p := m0.CachedProbability(d, 1); p <= 0 {
		t.Fatal("conditioned chain never cached the other rule")
	}
}

// TestSelectorBasicVsCompact cross-validates probe selection across the
// two models: on a configuration both can represent, the exact basic
// model and the approximate compact model must broadly agree on every
// probe's hit probability and rank the same probe (or a near-tie) best.
func TestSelectorBasicVsCompact(t *testing.T) {
	cfg := fig2cConfig(t)
	const steps = 40

	basic, err := NewBasicModel(cfg, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	basic0, err := NewBasicModel(cfg.withoutFlow(0), 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	selBasic, err := NewProbeSelector(basic, basic0, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	selCompact := newSelector(t, cfg, 0, steps)

	for _, f := range selCompact.AllFlows() {
		eb := selBasic.Evaluate(f)
		ec := selCompact.Evaluate(f)
		if math.Abs(eb.PHit-ec.PHit) > 0.1 {
			t.Errorf("flow %d: P(hit) basic %.3f vs compact %.3f", f, eb.PHit, ec.PHit)
		}
	}
	bestB, _ := selBasic.Best(selBasic.AllFlows())
	bestC, _ := selCompact.Best(selCompact.AllFlows())
	if bestB.Flow != bestC.Flow {
		// Accept a near-tie: the compact winner must be within 20% of
		// the basic model's best gain under the basic model.
		alt := selBasic.Evaluate(bestC.Flow)
		if alt.Gain < 0.8*bestB.Gain {
			t.Fatalf("models disagree on the optimal probe: basic→%d (%.4f) compact→%d (%.4f under basic)",
				bestB.Flow, bestB.Gain, bestC.Flow, alt.Gain)
		}
	}
}

// TestMicroflowRulesGivePerfectAttribution is the §III-B1 granularity
// observation: with microflow rules (one rule per flow), a hit on the
// target's rule certifies the target itself, so P(X̂=1 | hit) = 1.
func TestMicroflowRulesGivePerfectAttribution(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "micro-target", Cover: flows.SetOf(0), Priority: 2, Timeout: 8},
		{Name: "micro-other", Cover: flows.SetOf(1), Priority: 1, Timeout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.25, 0.9}, Delta: 0.25, CacheSize: 2}
	sel := newSelector(t, cfg, 0, 20)
	e := sel.Evaluate(0)
	if math.Abs(e.PostPresentGivenHit-1) > 1e-6 {
		t.Fatalf("P(present | hit) = %v, want 1 for a microflow rule", e.PostPresentGivenHit)
	}
	// And the target is its own best probe: no other flow can inform.
	best, _ := sel.Best(sel.AllFlows())
	if best.Flow != 0 {
		t.Fatalf("best probe = %d, want the target under microflow rules", best.Flow)
	}
}

func TestGainVsWindow(t *testing.T) {
	cfg := fig2cConfig(t)
	sel, err := NewCompactSelector(cfg, 0, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(sel.dist)
	windows := []int{5, 20, 80, 400}
	points, err := sel.GainVsWindow(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(windows) {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.Steps != windows[i] {
			t.Fatalf("point %d: window %d, want %d", i, p.Steps, windows[i])
		}
		if p.Best.Gain < 0 {
			t.Fatalf("window %d: negative gain", p.Steps)
		}
		if i > 0 && p.PAbsent >= points[i-1].PAbsent {
			t.Fatal("absence must decay with the window")
		}
		// Oracle: the sweep's borrowed selector must agree exactly with a
		// selector built fresh at that window.
		fresh, err := NewCompactSelector(cfg, 0, p.Steps, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.Best(fresh.AllFlows())
		if p.Best.Flow != want.Flow || p.Best.Gain != want.Gain || p.PAbsent != fresh.PAbsent() {
			t.Fatalf("window %d: sweep (probe %d, gain %v, P(absent) %v), fresh selector (probe %d, gain %v, P(absent) %v)",
				p.Steps, p.Best.Flow, p.Best.Gain, p.PAbsent, want.Flow, want.Gain, fresh.PAbsent())
		}
	}
	// The channel remembers ~one TTL (6 steps here): asking about a
	// 400-step past must be far less answerable than a 20-step past.
	if points[3].Best.Gain >= points[1].Best.Gain {
		t.Fatalf("gain did not collapse with window: %v vs %v",
			points[3].Best.Gain, points[1].Best.Gain)
	}
	after := sel.dist
	for x := range before {
		if after[x] != before[x] {
			t.Fatal("sweep moved the selector's own distribution")
		}
	}
	if _, err := sel.GainVsWindow(nil); err == nil {
		t.Fatal("empty window list accepted")
	}
	if _, err := sel.GainVsWindow([]int{0}); err == nil {
		t.Fatal("zero window accepted")
	}
}
