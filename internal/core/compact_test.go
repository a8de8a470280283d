package core

import (
	"math"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

func TestCompactStateCount(t *testing.T) {
	cases := []struct {
		rules, cap, want int
	}{
		{12, 6, 2510},     // the paper's evaluation setting (+ empty state)
		{3, 2, 1 + 3 + 3}, // ∅, singletons, pairs
		{4, 10, 16},       // capacity above |Rules| → all subsets
		{1, 1, 2},         // ∅ and {rule}
	}
	for _, c := range cases {
		if got := CompactStateCount(c.rules, c.cap); got != c.want {
			t.Errorf("CompactStateCount(%d,%d) = %d, want %d", c.rules, c.cap, got, c.want)
		}
	}
}

func TestCompactModelBuild(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.NumStates(), CompactStateCount(3, 2); got != want {
		t.Fatalf("states = %d, want %d", got, want)
	}
	if err := m.Matrix().CheckStochastic(1e-9); err != nil {
		t.Fatal(err)
	}
	if m.ExactStateFraction() != 1 {
		t.Fatalf("tiny config should enumerate exactly, got fraction %v", m.ExactStateFraction())
	}
}

func TestCompactModelRejectsBadConfig(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.CacheSize = 0
	if _, err := NewCompactModel(cfg, DefaultUSumParams()); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestUSumSingleRuleAnalytic(t *testing.T) {
	// One rule covering one flow: P(u) = g·e^{-g·u}. Timeout probability
	// must equal e^{-g·t} / Σ_{u=1..t} e^{-g·u}; eviction is trivially 1.
	rs, err := rules.NewSet([]rules.Rule{{Cover: flows.SetOf(0), Priority: 1, Timeout: 5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.7}, Delta: 0.3, CacheSize: 1}
	e := &uEstimator{rs: rs, sr: cfg.stepRates(), capacity: 1, params: DefaultUSumParams()}
	est := e.estimate([]int{0})
	if !est.Feasible || !est.Exact {
		t.Fatalf("estimates = %+v", est)
	}
	if math.Abs(est.Evict[0]-1) > 1e-12 {
		t.Fatalf("evict = %v", est.Evict[0])
	}
	g := 0.7 * 0.3
	num := math.Exp(-g * 5)
	den := 0.0
	for u := 1; u <= 5; u++ {
		den += math.Exp(-g * float64(u))
	}
	if want := num / den; math.Abs(est.Timeout[0]-want) > 1e-9 {
		t.Fatalf("timeout = %v, want %v", est.Timeout[0], want)
	}
}

func TestUSumEvictionFavorsShorterTimeout(t *testing.T) {
	// Two cached rules over disjoint flows with equal rates: the rule
	// with the shorter timeout should be the likelier eviction victim.
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 2, Timeout: 2},
		{Cover: flows.SetOf(1), Priority: 1, Timeout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.5, 0.5}, Delta: 0.2, CacheSize: 2}
	e := &uEstimator{rs: rs, sr: cfg.stepRates(), capacity: 2, params: DefaultUSumParams()}
	est := e.estimate([]int{0, 1})
	if est.Evict[0] <= est.Evict[1] {
		t.Fatalf("evict = %v; short-timeout rule should be likelier victim", est.Evict)
	}
	if s := est.Evict[0] + est.Evict[1]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("eviction distribution sums to %v", s)
	}
}

func TestUSumInfeasibleFallback(t *testing.T) {
	// Two cached rules both with timeout 1: injective u is impossible.
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 2, Timeout: 1},
		{Cover: flows.SetOf(1), Priority: 1, Timeout: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.5, 0.5}, Delta: 0.2, CacheSize: 2}
	e := &uEstimator{rs: rs, sr: cfg.stepRates(), capacity: 2, params: DefaultUSumParams()}
	est := e.estimate([]int{0, 1})
	if est.Feasible {
		t.Fatal("infeasible assignment reported feasible")
	}
	if est.Evict[0] != 0.5 || est.Evict[1] != 0.5 {
		t.Fatalf("fallback eviction = %v", est.Evict)
	}
	if est.Timeout[0] != 0 || est.Timeout[1] != 0 {
		t.Fatalf("fallback timeout = %v", est.Timeout)
	}
}

func TestUSumEmptyState(t *testing.T) {
	cfg := tinyConfig(t)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: 2, params: DefaultUSumParams()}
	est := e.estimate(nil)
	if !est.Feasible || len(est.Evict) != 0 {
		t.Fatalf("empty-state estimate = %+v", est)
	}
}

func TestUSumMonteCarloMatchesExact(t *testing.T) {
	// Force MC by setting ExactLimit to 0 and compare with the exact sum.
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 6},
		{Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 4},
		{Cover: flows.SetOf(3), Priority: 1, Timeout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.6, 0.4, 0.8, 0.3}, Delta: 0.2, CacheSize: 3}
	exactE := &uEstimator{rs: rs, sr: cfg.stepRates(), capacity: 3, params: USumParams{ExactLimit: 1 << 20, MCSamples: 1, Seed: 1}}
	mcE := &uEstimator{rs: rs, sr: cfg.stepRates(), capacity: 3, params: USumParams{ExactLimit: 0, MCSamples: 60000, Seed: 1}}
	cachedSets := [][]int{{0, 1}, {0, 1, 2}, {1, 2}, {0}}
	for _, cs := range cachedSets {
		exact := exactE.estimate(cs)
		mc := mcE.estimate(cs)
		if !exact.Exact || mc.Exact {
			t.Fatalf("estimator mode mix-up: exact=%v mc=%v", exact.Exact, mc.Exact)
		}
		for _, j := range cs {
			if math.Abs(exact.Evict[j]-mc.Evict[j]) > 0.02 {
				t.Errorf("cached %v rule %d: evict exact %.4f vs mc %.4f", cs, j, exact.Evict[j], mc.Evict[j])
			}
			if math.Abs(exact.Timeout[j]-mc.Timeout[j]) > 0.02 {
				t.Errorf("cached %v rule %d: timeout exact %.4f vs mc %.4f", cs, j, exact.Timeout[j], mc.Timeout[j])
			}
		}
	}
}

func TestInjectiveFeasible(t *testing.T) {
	cases := []struct {
		touts []int
		want  bool
	}{
		{[]int{1}, true},
		{[]int{1, 1}, false},
		{[]int{1, 2}, true},
		{[]int{2, 2, 2}, false},
		{[]int{3, 1, 2}, true},
		{nil, true},
	}
	for _, c := range cases {
		if got := injectiveFeasible(c.touts); got != c.want {
			t.Errorf("injectiveFeasible(%v) = %v", c.touts, got)
		}
	}
}

func TestSampleInjective(t *testing.T) {
	rng := &splitmix{s: 1}
	u := make([]int, 3)
	for i := 0; i < 200; i++ {
		if !sampleInjective(rng, []int{4, 4, 4}, u) {
			t.Fatal("sampling failed on feasible grid")
		}
		if u[0] == u[1] || u[0] == u[2] || u[1] == u[2] {
			t.Fatalf("non-injective sample %v", u)
		}
		for k, v := range u {
			if v < 1 || v > 4 {
				t.Fatalf("u[%d] = %d out of range", k, v)
			}
		}
	}
}

// TestCompactAgreesWithBasic compares the two models' hit probabilities on
// the tiny configuration. The compact model is approximate, so the
// tolerance is loose — but both must broadly agree about which flows are
// likely covered.
func TestCompactAgreesWithBasic(t *testing.T) {
	cfg := tinyConfig(t)
	basic, err := NewBasicModel(cfg, 400000)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	db := basic.Evolve(basic.InitialDist(), steps)
	dc := compact.Evolve(compact.InitialDist(), steps)
	for f := 0; f < len(cfg.Rates); f++ {
		pb := basic.HitProbability(db, flows.ID(f))
		pc := compact.HitProbability(dc, flows.ID(f))
		if math.Abs(pb-pc) > 0.12 {
			t.Errorf("flow %d: basic %.3f vs compact %.3f", f, pb, pc)
		}
	}
	for j := 0; j < cfg.Rules.Len(); j++ {
		pb := basic.CachedProbability(db, j)
		pc := compact.CachedProbability(dc, j)
		if math.Abs(pb-pc) > 0.12 {
			t.Errorf("rule %d: basic %.3f vs compact %.3f", j, pb, pc)
		}
	}
}

// TestCompactAgainstContinuousSimulation validates the compact model
// end-to-end against the continuous-time reference switch fed by Poisson
// traffic — the analogue of the paper's Mininet ground truth.
func TestCompactAgainstContinuousSimulation(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0, 1), Priority: 5, Timeout: 6},
		{Cover: flows.SetOf(1, 2), Priority: 4, Timeout: 10},
		{Cover: flows.SetOf(2, 3), Priority: 3, Timeout: 4},
		{Cover: flows.SetOf(0, 3), Priority: 2, Timeout: 8},
		{Cover: flows.SetOf(4), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rules:     rs,
		Rates:     []float64{0.5, 0.9, 0.3, 0.7, 0.4},
		Delta:     0.1,
		CacheSize: 3,
	}
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	const (
		steps  = 100
		trials = 4000
	)
	dT := m.Evolve(m.InitialDist(), steps)

	horizon := float64(steps) * cfg.Delta
	rng := stats.NewRNG(7)
	hits := make([]int, len(cfg.Rates))
	for trial := 0; trial < trials; trial++ {
		tr, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: cfg.Rates, Duration: horizon}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := flowtable.New(rs, cfg.CacheSize, cfg.Delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr.Arrivals() {
			if _, ok := tbl.Lookup(a.Flow, a.Time); !ok {
				if j, covered := rs.HighestCovering(a.Flow); covered {
					tbl.Install(j, a.Time)
				}
			}
		}
		for f := range cfg.Rates {
			if _, ok := rs.MatchIn(flows.ID(f), func(j int) bool { return tbl.Contains(j, horizon) }); ok {
				hits[f]++
			}
		}
	}
	for f := range cfg.Rates {
		want := float64(hits[f]) / trials
		got := m.HitProbability(dT, flows.ID(f))
		if math.Abs(got-want) > 0.12 {
			t.Errorf("flow %d: compact %.3f vs simulated %.3f", f, got, want)
		}
	}
}

func TestCompactApplyProbe(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	d := m.Evolve(m.InitialDist(), 25)
	hit, miss := m.SplitByHit(d, 1)
	if math.Abs(hit.Sum()+miss.Sum()-1) > 1e-9 {
		t.Fatalf("partition mass = %v", hit.Sum()+miss.Sum())
	}
	after := m.ApplyProbe(miss, 1, false)
	if math.Abs(after.Sum()-miss.Sum()) > 1e-9 {
		t.Fatal("install lost mass")
	}
	// Flow 1's only cover is rule1 (index 1): after the install, every
	// state in the miss mass must cache it.
	if p := m.CachedProbability(after, 1); math.Abs(p-miss.Sum()) > 1e-9 {
		t.Fatalf("rule1 cached mass = %v, want %v", p, miss.Sum())
	}
	// A hit probe is a no-op on subset states.
	afterHit := m.ApplyProbe(hit, 1, true)
	for i := range hit {
		if afterHit[i] != hit[i] {
			t.Fatal("hit probe changed the distribution")
		}
	}
	// Probing an uncovered flow changes nothing.
	cfgWide := cfg
	cfgWide.Rates = []float64{0.8, 0.5, 0.9, 0.1}
	m2, err := NewCompactModel(cfgWide, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	d2 := m2.Evolve(m2.InitialDist(), 10)
	after2 := m2.ApplyProbe(d2, 3, false)
	for i := range d2 {
		if after2[i] != d2[i] {
			t.Fatal("uncovered probe changed the distribution")
		}
	}
}

func TestCompactApplyProbeEvictsWhenFull(t *testing.T) {
	cfg := tinyConfig(t) // capacity 2, 3 rules
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	// Build a point distribution on the full state {rule0, rule1}.
	var full int = -1
	for i := 0; i < m.NumStates(); i++ {
		if m.StateMask(i) == 0b011 {
			full = i
		}
	}
	if full < 0 {
		t.Fatal("full state not found")
	}
	d := make([]float64, m.NumStates())
	d[full] = 1
	after := m.ApplyProbe(d, 2, false) // install rule2, must evict rule0 or rule1
	if math.Abs(sum(after)-1) > 1e-9 {
		t.Fatalf("mass = %v", sum(after))
	}
	if p := m.CachedProbability(after, 2); math.Abs(p-1) > 1e-9 {
		t.Fatalf("rule2 cached = %v", p)
	}
	// No state may hold all three rules (capacity 2).
	for i, p := range after {
		if p > 0 && m.StateMask(i) == 0b111 {
			t.Fatal("over-capacity state has mass")
		}
	}
}

func TestCompactSteadyState(t *testing.T) {
	cfg := tinyConfig(t)
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	d, steps := m.SteadyState(1e-10, 10000)
	if steps >= 10000 {
		t.Fatal("steady state did not converge")
	}
	next := m.Matrix().Apply(d)
	for i := range d {
		if math.Abs(next[i]-d[i]) > 1e-8 {
			t.Fatalf("not stationary at state %d: %v vs %v", i, d[i], next[i])
		}
	}
}

func TestMaskIDs(t *testing.T) {
	ids := appendMaskIDs(nil, 0b1011)
	want := []int{0, 1, 3}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if len(appendMaskIDs(nil, 0)) != 0 {
		t.Fatal("empty mask")
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestSumGammaRangeMatchesNaive(t *testing.T) {
	cfg := tinyConfig(t)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: 2, params: DefaultUSumParams()}
	tab := e.buildGammaTables([]int{0, 1})
	rng := stats.NewRNG(11)
	for trial := 0; trial < 500; trial++ {
		u := []int{1 + rng.Intn(6), 1 + rng.Intn(6)}
		for j := 0; j < cfg.Rules.Len(); j++ {
			for kmax := 0; kmax <= 8; kmax++ {
				naive := 0.0
				for k := 1; k <= kmax; k++ {
					naive += tab.gammaAt(j, k, u)
				}
				if got := tab.sumGammaRange(j, kmax, u); math.Abs(got-naive) > 1e-12 {
					t.Fatalf("u=%v j=%d kmax=%d: segment %v vs naive %v", u, j, kmax, got, naive)
				}
			}
		}
	}
}

// TestFigure4EvictionFanOut reproduces the paper's Figure 4: from a full
// state {rule1, rule2, rule3}, the arrival of a flow that installs rule4
// must fan out to exactly the three states exchanging one resident rule
// for rule4.
func TestFigure4EvictionFanOut(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 4, Timeout: 4},
		{Name: "rule2", Cover: flows.SetOf(1), Priority: 3, Timeout: 5},
		{Name: "rule3", Cover: flows.SetOf(2), Priority: 2, Timeout: 6},
		{Name: "rule4", Cover: flows.SetOf(3), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.4, 0.5, 0.6, 0.7}, Delta: 0.1, CacheSize: 3}
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	var from int = -1
	for i := 0; i < m.NumStates(); i++ {
		if m.StateMask(i) == 0b0111 { // {rule1, rule2, rule3}
			from = i
		}
	}
	if from < 0 {
		t.Fatal("full state not enumerated")
	}
	tos, ps := m.Matrix().Row(from)
	wantTargets := map[uint64]bool{
		0b1110: true, // rule1 evicted
		0b1101: true, // rule2 evicted
		0b1011: true, // rule3 evicted
	}
	found := map[uint64]float64{}
	for i, to := range tos {
		mask := m.StateMask(to)
		if wantTargets[mask] {
			found[mask] = ps[i]
		}
	}
	if len(found) != 3 {
		t.Fatalf("eviction fan-out = %v, want the three Figure 4 targets", found)
	}
	for mask, p := range found {
		if p <= 0 {
			t.Fatalf("target %04b has zero probability", mask)
		}
	}
}

// TestFigure5ExpirationFanOut reproduces the paper's Figure 5: from state
// {rule1, rule2}, the null event must offer both single-rule expiration
// transitions.
func TestFigure5ExpirationFanOut(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 2, Timeout: 4},
		{Name: "rule2", Cover: flows.SetOf(1), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.4, 0.5}, Delta: 0.1, CacheSize: 2}
	m, err := NewCompactModel(cfg, DefaultUSumParams())
	if err != nil {
		t.Fatal(err)
	}
	var from int = -1
	for i := 0; i < m.NumStates(); i++ {
		if m.StateMask(i) == 0b11 {
			from = i
		}
	}
	tos, ps := m.Matrix().Row(from)
	got := map[uint64]float64{}
	for i, to := range tos {
		got[m.StateMask(to)] = ps[i]
	}
	if got[0b10] <= 0 || got[0b01] <= 0 {
		t.Fatalf("expiration fan-out = %v, want both {rule1} and {rule2} reachable", got)
	}
	// The shorter-TTL rule (rule1, t=4) should be the likelier expiration.
	if got[0b10] <= got[0b01] {
		t.Fatalf("short-TTL rule should expire first: P(lose rule1)=%v vs P(lose rule2)=%v",
			got[0b10], got[0b01])
	}
}
