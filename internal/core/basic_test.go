package core

import (
	"math"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/markov"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// tinyConfig builds the paper's Figure 3 rule structure with small
// timeouts so the basic model's state space stays tiny: rule0 covers f0;
// rule1 covers {f0,f1} at lower priority; rule2 covers f2. Cache size 2.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 3, Timeout: 3},
		{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 4},
		{Name: "rule3", Cover: flows.SetOf(2), Priority: 1, Timeout: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rules:     rs,
		Rates:     []float64{0.8, 0.5, 0.9},
		Delta:     0.2,
		CacheSize: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Delta = 0
	if bad.Validate() == nil {
		t.Fatal("zero delta accepted")
	}
	bad = good
	bad.CacheSize = 0
	if bad.Validate() == nil {
		t.Fatal("zero cache accepted")
	}
	bad = good
	bad.Rates = []float64{1, math.NaN(), 1}
	if bad.Validate() == nil {
		t.Fatal("NaN rate accepted")
	}
	bad = good
	bad.Rates = []float64{1} // rules cover flows 0..2
	if bad.Validate() == nil {
		t.Fatal("out-of-universe cover accepted")
	}
	bad = good
	bad.Rules = nil
	if bad.Validate() == nil {
		t.Fatal("nil rules accepted")
	}
	bad = good
	bad.Rates = nil
	if bad.Validate() == nil {
		t.Fatal("nil rates accepted")
	}
}

func TestRelevantFlows(t *testing.T) {
	cfg := tinyConfig(t)
	// Cache = {rule0}: rule0 cached → relevant {f0}. rule1 uncached →
	// subtract cached rule0 and (no higher-priority uncached) → {f1}.
	cached := func(j int) bool { return j == 0 }
	if rel := relevantFlows(cfg.Rules, cached, 0); !rel.Equal(flows.SetOf(0)) {
		t.Fatalf("rel(rule0) = %v", rel)
	}
	if rel := relevantFlows(cfg.Rules, cached, 1); !rel.Equal(flows.SetOf(1)) {
		t.Fatalf("rel(rule1) = %v", rel)
	}
	if rel := relevantFlows(cfg.Rules, cached, 2); !rel.Equal(flows.SetOf(2)) {
		t.Fatalf("rel(rule2) = %v", rel)
	}
	// Cache = {rule1}: rule1 cached, no higher-priority rule cached →
	// relevant {f0, f1}. rule0 uncached: subtract cached rule1 → ∅.
	cached = func(j int) bool { return j == 1 }
	if rel := relevantFlows(cfg.Rules, cached, 1); !rel.Equal(flows.SetOf(0, 1)) {
		t.Fatalf("rel(rule1) = %v", rel)
	}
	if rel := relevantFlows(cfg.Rules, cached, 0); !rel.Empty() {
		t.Fatalf("rel(rule0) = %v, want empty", rel)
	}
	// Empty cache: rule1's relevant flows exclude those of
	// higher-priority uncached rule0 → {f1}.
	cached = func(int) bool { return false }
	if rel := relevantFlows(cfg.Rules, cached, 1); !rel.Equal(flows.SetOf(1)) {
		t.Fatalf("rel(rule1) empty cache = %v", rel)
	}
}

func TestEventWeightsNormalizable(t *testing.T) {
	cfg := tinyConfig(t)
	var w eventWeights
	computeEventWeights(newCoverTable(cfg.Rules, len(cfg.Rates)), cfg.stepRates(), 0, &w)
	if w.null <= 0 || w.null >= 1 {
		t.Fatalf("null weight = %v", w.null)
	}
	var total float64
	for _, a := range w.arrival {
		if a < 0 {
			t.Fatalf("negative arrival weight: %v", w.arrival)
		}
		total += a
	}
	if total <= 0 {
		t.Fatal("no arrival events from empty cache")
	}
}

func TestStepRatesZeroUncovered(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Rates = []float64{0.8, 0.5, 0.9, 7.0} // flow 3 covered by nothing
	sr := cfg.stepRates()
	if sr[3] != 0 {
		t.Fatalf("uncovered flow rate = %v, want 0", sr[3])
	}
	if sr[0] != 0.8*cfg.Delta {
		t.Fatalf("sr[0] = %v", sr[0])
	}
}

func TestBasicStateCountClosedForm(t *testing.T) {
	// Two rules with t=1, n=1: states = {} + ordered singletons with
	// clocks 0..1 → 1 + 2·2 = 5.
	if got := BasicStateCount([]int{1, 1}, 1); got != 5 {
		t.Fatalf("count = %v, want 5", got)
	}
	// Brute force against the definition for a slightly larger case.
	touts := []int{2, 3, 4}
	n := 2
	want := 0.0
	for mask := 0; mask < 8; mask++ {
		size, prod := 0, 1
		for j := 0; j < 3; j++ {
			if mask&(1<<j) != 0 {
				size++
				prod *= touts[j] + 1
			}
		}
		if size <= n {
			f := 1
			for k := 2; k <= size; k++ {
				f *= k
			}
			want += float64(f * prod)
		}
	}
	if got := BasicStateCount(touts, n); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
}

func TestBasicStateCountPaperExample(t *testing.T) {
	// §IV-A2: |Rules| = 10, t_j = 100, n = 8. The formula's value is
	// astronomically larger than the paper's quoted 5.9×10⁷ (see
	// EXPERIMENTS.md); here we only pin the closed form against a direct
	// evaluation Σ_{k≤8} k!·C(10,k)·101^k.
	touts := make([]int, 10)
	for i := range touts {
		touts[i] = 100
	}
	want := 0.0
	fact := 1.0
	c := 1.0
	pow := 1.0
	for k := 0; k <= 8; k++ {
		if k > 0 {
			fact *= float64(k)
			c = c * float64(10-k+1) / float64(k)
			pow *= 101
		}
		want += fact * c * pow
	}
	got := BasicStateCount(touts, 8)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("count = %v, want %v", got, want)
	}
}

func TestBasicModelBuild(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() < 10 {
		t.Fatalf("suspiciously few states: %d", m.NumStates())
	}
	if float64(m.NumStates()) > BasicStateCount([]int{3, 4, 3}, 2) {
		t.Fatalf("reachable states %d exceed closed-form bound", m.NumStates())
	}
	if err := m.Matrix().CheckStochastic(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestBasicModelStateLimit(t *testing.T) {
	cfg := tinyConfig(t)
	if _, err := NewBasicModel(cfg, 3); err == nil {
		t.Fatal("state limit not enforced")
	}
}

func TestBasicModelHitProbabilityGrowsFromEmpty(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	d0 := m.InitialDist()
	if p := m.HitProbability(d0, 0); p != 0 {
		t.Fatalf("hit probability in empty cache = %v", p)
	}
	d := m.Evolve(d0, 30)
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Fatalf("mass = %v", d.Sum())
	}
	p := m.HitProbability(d, 0)
	if p <= 0 || p >= 1 {
		t.Fatalf("hit probability after 30 steps = %v", p)
	}
}

// TestBasicModelAgainstStepSimulation drives the executable StepTable with
// discretized Poisson arrivals and compares the empirical hit probability
// at step T with the chain's prediction.
func TestBasicModelAgainstStepSimulation(t *testing.T) {
	// Use a small Δ so that two arrivals in one step are rare — the
	// regime the basic model is derived for (§IV-A).
	cfg := tinyConfig(t)
	cfg.Delta = 0.05
	m, err := NewBasicModel(cfg, 400000)
	if err != nil {
		t.Fatal(err)
	}
	const (
		steps  = 80
		trials = 6000
	)
	dT := m.Evolve(m.InitialDist(), steps)

	rng := stats.NewRNG(42)
	hits := make([]int, len(cfg.Rates))
	cachedCount := make([]int, cfg.Rules.Len())
	for trial := 0; trial < trials; trial++ {
		tr, err := workload.GeneratePoisson(workload.PoissonConfig{
			Rates:    cfg.Rates,
			Duration: float64(steps) * cfg.Delta,
		}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		st := flowtable.NewStepTable(cfg.Rules, cfg.CacheSize)
		perStep := workload.StepArrivals(tr, cfg.Delta, steps)
		for s := 0; s < steps; s++ {
			if st.PendingTimeout() {
				st.StepTimeout()
				continue // the chain spends a step on the timeout
			}
			if len(perStep[s]) > 0 {
				st.StepArrival(perStep[s][0]) // chain allows one arrival per step
			} else {
				st.StepNull()
			}
		}
		for f := range cfg.Rates {
			if _, ok := cfg.Rules.MatchIn(flows.ID(f), st.Contains); ok {
				hits[f]++
			}
		}
		for j := 0; j < cfg.Rules.Len(); j++ {
			if st.Contains(j) {
				cachedCount[j]++
			}
		}
	}
	for f := range cfg.Rates {
		want := m.HitProbability(dT, flows.ID(f))
		got := float64(hits[f]) / trials
		if math.Abs(got-want) > 0.05 {
			t.Errorf("flow %d: simulated hit %.3f vs model %.3f", f, got, want)
		}
	}
	for j := 0; j < cfg.Rules.Len(); j++ {
		want := m.CachedProbability(dT, j)
		got := float64(cachedCount[j]) / trials
		if math.Abs(got-want) > 0.05 {
			t.Errorf("rule %d: simulated cached %.3f vs model %.3f", j, got, want)
		}
	}
}

func TestBasicModelTransitionsMatchStepTable(t *testing.T) {
	// Every chain transition target must be reproducible by the
	// executable StepTable: walk a few states and cross-check the miss
	// and hit transforms.
	cfg := tinyConfig(t)
	m, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	// From empty, the arrival of f2 (flow 1) must install rule1 (id 1).
	st := flowtable.NewStepTable(cfg.Rules, cfg.CacheSize)
	st.StepArrival(1)
	key := st.Key()
	if _, ok := m.res.Index[key]; !ok {
		t.Fatalf("state %q not reachable in chain", key)
	}
	// Continue: f0 arrival installs rule0.
	st.StepArrival(0)
	if _, ok := m.res.Index[st.Key()]; !ok {
		t.Fatalf("state %q not reachable in chain", st.Key())
	}
}

func TestBasicApplyProbe(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Evolve(m.InitialDist(), 20)
	// After a miss-probe of flow 2, rule2 (id 2) must be cached with
	// certainty on the miss mass.
	_, miss := m.SplitByHit(d, 2)
	missMass := miss.Sum()
	if missMass <= 0 {
		t.Skip("no miss mass at this horizon")
	}
	after := m.ApplyProbe(miss, 2, false)
	if math.Abs(after.Sum()-missMass) > 1e-9 {
		t.Fatalf("probe lost mass: %v → %v", missMass, after.Sum())
	}
	if p := m.CachedProbability(after, 2); math.Abs(p-missMass) > 1e-9 {
		t.Fatalf("rule2 cached mass after install = %v, want %v", p, missMass)
	}
	// Hit-probe must preserve mass and keep the matched rule cached.
	hit, _ := m.SplitByHit(d, 0)
	if hit.Sum() > 0 {
		afterHit := m.ApplyProbe(hit, 0, true)
		if math.Abs(afterHit.Sum()-hit.Sum()) > 1e-9 {
			t.Fatalf("hit probe lost mass")
		}
		if p := m.HitProbability(afterHit, 0); math.Abs(p-hit.Sum()) > 1e-9 {
			t.Fatalf("flow 0 no longer covered after hit refresh: %v", p)
		}
	}
}

func TestBasicSplitByHitPartitions(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Evolve(m.InitialDist(), 25)
	hit, miss := m.SplitByHit(d, 1)
	if math.Abs(hit.Sum()+miss.Sum()-1) > 1e-9 {
		t.Fatalf("partition mass = %v", hit.Sum()+miss.Sum())
	}
	if math.Abs(hit.Sum()-m.HitProbability(d, 1)) > 1e-12 {
		t.Fatal("hit mass disagrees with HitProbability")
	}
}

func TestMergeTransitions(t *testing.T) {
	in := []markov.Transition[string]{{To: "a", P: 0.3}, {To: "b", P: 0.2}, {To: "a", P: 0.5}}
	out := mergeTransitions(in)
	if len(out) != 2 {
		t.Fatalf("merged = %v", out)
	}
	if out[0].To != "a" || math.Abs(out[0].P-0.8) > 1e-15 {
		t.Fatalf("merged = %v", out)
	}
}

func TestEncodeDecodeBasic(t *testing.T) {
	slots := []basicEntry{{rule: 3, exp: 10}, {rule: 0, exp: 2}}
	key := encodeBasic(slots)
	if key != "3:10|0:2" {
		t.Fatalf("key = %q", key)
	}
	back := decodeBasic(key)
	if len(back) != 2 || back[0] != slots[0] || back[1] != slots[1] {
		t.Fatalf("decode = %v", back)
	}
	if decodeBasic("") != nil {
		t.Fatal("empty decode should be nil")
	}
}
