package core

import (
	"math"
	"testing"
	"testing/quick"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

// randomConfig derives a small random model configuration from a seed, for
// property-based testing of model invariants.
func randomConfig(seed int64) (Config, bool) {
	rng := stats.NewRNG(seed)
	nflows := 3 + rng.Intn(4) // 3..6 flows
	nrules := 2 + rng.Intn(3) // 2..4 rules
	cache := 1 + rng.Intn(3)  // 1..3 slots
	rl := make([]rules.Rule, 0, nrules)
	prios := rng.Perm(nrules)
	for i := 0; i < nrules; i++ {
		cover := flows.NewSet(nflows)
		for f := 0; f < nflows; f++ {
			if rng.Bernoulli(0.4) {
				cover.Add(flows.ID(f))
			}
		}
		if cover.Empty() {
			cover.Add(flows.ID(rng.Intn(nflows)))
		}
		kind := rules.IdleTimeout
		if rng.Bernoulli(0.2) {
			kind = rules.HardTimeout
		}
		rl = append(rl, rules.Rule{
			Cover:    cover,
			Priority: prios[i] + 1,
			Timeout:  1 + rng.Intn(5),
			Kind:     kind,
		})
	}
	rs, err := rules.NewSet(rl)
	if err != nil {
		return Config{}, false
	}
	rates := make([]float64, nflows)
	lo, hi := 0.05, 1.0
	for i := range rates {
		rates[i] = lo + (hi-lo)*rng.Float64() // uniform in [0.05, 1)
	}
	return Config{Rules: rs, Rates: rates, Delta: 0.1, CacheSize: cache}, true
}

// TestPropertyCompactStochastic: every randomly generated compact model
// must have a row-stochastic transition matrix and conserve probability
// mass under evolution.
func TestPropertyCompactStochastic(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		m, err := NewCompactModel(cfg, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := m.Matrix().CheckStochastic(1e-9); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		d := evolve(m, m.InitialDist(), 25)
		return math.Abs(d.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBasicStochastic: the exact chain must be stochastic too, and
// its reachable state count must respect the closed-form bound.
func TestPropertyBasicStochastic(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		m, err := NewBasicModel(cfg, 1<<20)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		touts := make([]int, cfg.Rules.Len())
		for i := range touts {
			touts[i] = cfg.Rules.Rule(i).Timeout
		}
		if float64(m.NumStates()) > BasicStateCount(touts, cfg.CacheSize) {
			t.Logf("seed %d: reachable %d exceeds closed form", seed, m.NumStates())
			return false
		}
		d := evolve(m, m.InitialDist(), 25)
		return math.Abs(d.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCanonicalNoLarger: merging cache order can only shrink the
// reachable state space, and both variants must agree on hit
// probabilities (behaviour is order-independent).
func TestPropertyCanonicalNoLarger(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		ordered, err := NewBasicModel(cfg, 1<<20)
		if err != nil {
			return false
		}
		canonical, err := NewBasicModelCanonical(cfg, 1<<20)
		if err != nil {
			return false
		}
		if canonical.NumStates() > ordered.NumStates() {
			t.Logf("seed %d: canonical %d > ordered %d", seed, canonical.NumStates(), ordered.NumStates())
			return false
		}
		do := evolve(ordered, ordered.InitialDist(), 20)
		dc := evolve(canonical, canonical.InitialDist(), 20)
		for fid := 0; fid < len(cfg.Rates); fid++ {
			po := ordered.HitProbability(do, flows.ID(fid))
			pc := canonical.HitProbability(dc, flows.ID(fid))
			// Tie-breaking in eviction/timeout can differ between the
			// encodings, so allow a small numerical band.
			if math.Abs(po-pc) > 0.02 {
				t.Logf("seed %d flow %d: ordered %v vs canonical %v", seed, fid, po, pc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInformationGain: for any random config and target, every
// probe's information gain lies in [0, H(X̂)] and the joint distribution
// is a valid probability table.
func TestPropertyInformationGain(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		target := flows.ID(int(uint64(seed)>>8) % len(cfg.Rates))
		sel, err := NewCompactSelector(cfg, target, 20, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		h := sel.PriorEntropy()
		for _, fid := range sel.AllFlows() {
			e := sel.Evaluate(fid)
			if e.Gain < 0 || e.Gain > h+1e-9 {
				t.Logf("seed %d flow %d: gain %v prior %v", seed, fid, e.Gain, h)
				return false
			}
			var total float64
			for x := 0; x < 2; x++ {
				for q := 0; q < 2; q++ {
					if e.Joint[x][q] < -1e-12 {
						return false
					}
					total += e.Joint[x][q]
				}
			}
			if math.Abs(total-1) > 1e-6 {
				t.Logf("seed %d flow %d: joint mass %v", seed, fid, total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProbePreservesMass: ApplyProbe must move probability, never
// create or destroy it, for both hit and miss outcomes on both models.
func TestPropertyProbePreservesMass(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		m, err := NewCompactModel(cfg, nil)
		if err != nil {
			return false
		}
		d := evolve(m, m.InitialDist(), 15)
		for fid := 0; fid < len(cfg.Rates); fid++ {
			hit, miss := splitByHit(m, d, flows.ID(fid))
			if math.Abs(hit.Sum()+miss.Sum()-1) > 1e-9 {
				return false
			}
			after := applyProbe(m, miss, flows.ID(fid), false)
			if math.Abs(after.Sum()-miss.Sum()) > 1e-9 {
				t.Logf("seed %d flow %d: install mass %v → %v", seed, fid, miss.Sum(), after.Sum())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEvictionDistributions: the per-state §IV-B estimates must be
// probability distributions with timeout probabilities in [0, 1].
func TestPropertyEvictionDistributions(t *testing.T) {
	f := func(seed int64) bool {
		cfg, ok := randomConfig(seed)
		if !ok {
			return true
		}
		m, err := NewCompactModel(cfg, nil)
		if err != nil {
			return false
		}
		for i := 0; i < m.NumStates(); i++ {
			est := m.Estimates(i)
			if len(est.Evict) > 0 {
				var sum float64
				for _, p := range est.Evict {
					if p < -1e-12 {
						return false
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Logf("seed %d state %d: eviction sums to %v", seed, i, sum)
					return false
				}
			}
			for _, p := range est.Timeout {
				if p < 0 || p > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
