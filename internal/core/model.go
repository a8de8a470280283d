// Package core implements the paper's primary contribution: Markov models
// of an SDN switch rule cache (Section IV) and the information-gain probe
// selection built on them (Section V).
//
// The attack runs on CompactModel (§IV-B), an approximation: a state is
// the subset of rules presently cached; eviction and timeout
// probabilities are estimated by summing over most-recent-match
// sequences (the u functions). The paper's exact model (§IV-A), whose
// state is the ordered cache contents with per-rule remaining timeouts,
// is exponential in rules and timeouts (BasicStateCount gives its size),
// so it exists only in this package's tests, as the oracle the compact
// model, the probe selector and the switch table are checked against.
//
// A model implements every operation on a state distribution once, as a
// kernel over caller-owned buffers (Model: EvolveInPlace,
// SplitByHitInto, ApplyProbeInto); callers that keep their input clone it
// first.
//
// On top of a Model, ProbeSelector (probe.go, multiprobe.go) computes
// the information gain of candidate probe flows about the indicator
// X̂ = "target flow occurred within the last T steps" and selects optimal
// probes; attacker.go packages the paper's four attacker behaviours. The
// step "split both chains on a probe's outcome, apply its side effect,
// read the posterior" is written once over those kernels in planning
// (EvaluateSequence, multiprobe.go) and once at run time (BeliefTracker,
// belief.go).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// Config are the model inputs the paper grants the attacker (§III-C): the
// rule set, per-flow Poisson rates, the switch cache size, and the model
// step Δ.
type Config struct {
	// Rules is the controller's policy.
	Rules *rules.Set
	// Rates[f] is the Poisson rate λ_f of flow f in arrivals per second.
	// Its length defines the flow universe.
	Rates []float64
	// Delta is the model step duration Δ in seconds. Per §IV-A it should
	// be small enough that two arrivals within one step are improbable.
	Delta float64
	// CacheSize is the switch flow-table capacity n.
	CacheSize int
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if c.Rules == nil || c.Rules.Len() == 0 {
		return fmt.Errorf("core: empty rule set")
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf("core: empty rate vector")
	}
	if c.Delta <= 0 {
		return fmt.Errorf("core: Δ = %v ≤ 0", c.Delta)
	}
	if c.CacheSize < 1 {
		return fmt.Errorf("core: cache size %d < 1", c.CacheSize)
	}
	for f, r := range c.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("core: bad rate %v for flow %d", r, f)
		}
	}
	nf := len(c.Rates)
	for _, r := range c.Rules.Rules() {
		var bad bool
		r.Cover.ForEach(func(f flows.ID) {
			if int(f) >= nf {
				bad = true
			}
		})
		if bad {
			return fmt.Errorf("core: %s covers flows outside the %d-flow universe", r, nf)
		}
	}
	return nil
}

// stepRates returns λ_f·Δ per flow — the per-step arrival rates, zeroing
// flows not covered by any rule (they cannot change the cache, so their
// arrivals fold into the null event; see DESIGN.md).
func (c Config) stepRates() []float64 {
	covered := c.Rules.CoveredFlows()
	out := make([]float64, len(c.Rates))
	for f := range out {
		if covered.Contains(flows.ID(f)) {
			out[f] = c.Rates[f] * c.Delta
		}
	}
	return out
}

// withoutFlow returns a copy of the config in which flow f's rate is zero —
// the chain conditioned on the target flow never occurring (§V-A).
func (c Config) withoutFlow(f flows.ID) Config {
	out := c
	out.Rates = make([]float64, len(c.Rates))
	copy(out.Rates, c.Rates)
	out.Rates[f] = 0
	return out
}

// coverTable is a rule set's coverage in the two shapes the §IV rate sums
// walk: each rule's covered flows in ascending order, and each flow's
// covering rules as a bitmask (models have ≤ 64 rules). A sum over
// "rule_j minus the flows of some excluded rules" then costs one mask test
// per flow of rule j instead of cloning a flow set and subtracting covers
// from it.
type coverTable struct {
	flows  [][]int32 // flows[j]: rule j's covered flows, ascending
	covers []uint64  // covers[f]: bit j set iff rule j covers flow f
	higher []uint64  // higher[j]: bit j' set iff rule j' outranks rule j
}

// newCoverTable tabulates rs over a numFlows-flow universe (which must
// hold every covered flow, as Config.Validate checks).
func newCoverTable(rs *rules.Set, numFlows int) *coverTable {
	nr := rs.Len()
	total := 0
	for j := 0; j < nr; j++ {
		total += rs.Rule(j).Cover.Len()
	}
	c := &coverTable{
		flows:  make([][]int32, nr),
		covers: make([]uint64, numFlows),
		higher: make([]uint64, nr),
	}
	slab := make([]int32, 0, total)
	for j := 0; j < nr; j++ {
		start := len(slab)
		rs.Rule(j).Cover.ForEach(func(f flows.ID) {
			slab = append(slab, int32(f))
			c.covers[f] |= 1 << uint(j)
		})
		c.flows[j] = slab[start:len(slab):len(slab)]
		for j2 := 0; j2 < nr; j2++ {
			if rs.HigherPriority(j2, j) {
				c.higher[j] |= 1 << uint(j2)
			}
		}
	}
	return c
}

// memBytes estimates the table's heap footprint.
func (c *coverTable) memBytes() int64 {
	b := int64(len(c.covers)+len(c.higher))*8 + int64(len(c.flows))*24
	for _, fs := range c.flows {
		b += int64(len(fs)) * 4
	}
	return b
}

// installableRules returns the rules that are the highest-priority cover
// of some flow: rule j covering f with no rule outranking j covering f
// too (overlapping rules have distinct priorities, so each covered flow
// has exactly one). The set ignores the rates: a flow of rate zero is
// still probed, and a probe installs its highest-priority cover.
func (c *coverTable) installableRules() uint64 {
	var inst uint64
	for _, cov := range c.covers {
		for rem := cov; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem)
			if cov&c.higher[j] == 0 {
				inst |= 1 << uint(j)
				break
			}
		}
	}
	return inst
}

// gamma returns Σ sr[f] over rule j's flows that no rule in excl covers,
// and whether any such flow exists. It makes exactly the additions
// flows.Set.SumRates makes over rule j's cover with the excluded rules'
// covers subtracted, in the same ascending flow order from the same +0
// start, so the sum is bit-identical to the clone-and-subtract form.
func (c *coverTable) gamma(j int, excl uint64, sr []float64) (sum float64, relevant bool) {
	for _, f := range c.flows[j] {
		if c.covers[f]&excl == 0 {
			sum += sr[f]
			relevant = true
		}
	}
	return sum, relevant
}

// relevantExclusion returns the rules whose flows the two-case "relevant
// flow identifiers" definition of §IV-A1 removes from rule j in a state
// caching the rule set cached:
//
//   - j cached:   rule_j \ ∪ {rule_j' cached, rule_j' > rule_j}
//   - j uncached: rule_j \ (∪ cached rules ∪ {rule_j' uncached, rule_j' > rule_j})
func (c *coverTable) relevantExclusion(j int, cached uint64) uint64 {
	if cached&(1<<uint(j)) != 0 {
		return cached & c.higher[j]
	}
	return cached | c.higher[j]
}

// eventWeights holds the unnormalized transition weights out of a cache
// state (identified only by which rules are cached): one arrival event per
// rule plus the null event, per §IV-A1.
type eventWeights struct {
	// arrival[j] is (γ_j·e^{-γ_j})·e^{-Γ_j}; zero when rule j has no
	// relevant flows in this state.
	arrival []float64
	// relevant has bit j set when rule j has relevant flows in this
	// state, even ones of zero rate.
	relevant uint64
	// null is e^{-Λ}, the weight of no (covered) flow arriving.
	null float64
}

// computeEventWeights evaluates the §IV-A1 arrival/null weights for the
// state caching the rule set cached into w, reusing w's storage, with
// per-step rates sr. Each γ_j comes from the cover-table kernel, so every
// weight is bit-identical to the one computed from the cloned relevant
// flow set, and a warm w makes the call allocation-free.
func computeEventWeights(ct *coverTable, sr []float64, cached uint64, w *eventWeights) {
	var total float64
	for _, r := range sr {
		total += r
	}
	w.null = math.Exp(-total)
	w.arrival = resize(w.arrival, len(ct.flows))
	w.relevant = 0
	for j := range w.arrival {
		gamma, relevant := ct.gamma(j, ct.relevantExclusion(j, cached), sr)
		w.arrival[j] = 0
		if relevant {
			w.relevant |= 1 << uint(j)
		}
		if gamma <= 0 {
			continue
		}
		bigGamma := total - gamma
		w.arrival[j] = gamma * math.Exp(-gamma) * math.Exp(-bigGamma)
	}
}
