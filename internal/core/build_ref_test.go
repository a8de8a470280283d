package core

import (
	"math"
	"sort"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/rules"
)

// This file keeps the model-build path that the cover-table kernels, the
// estimator-owned scratch and the shared-prefix pair search replaced. It
// is the oracle of their bit-identity contract (build_test.go): every γ
// comes from a cloned flow set with covers subtracted, every state's
// rules are ordered by sort.Slice, every row is appended to an unreserved
// builder, and the two-probe search evaluates every ordered pair in full.

// relevantFlows implements the two-case "relevant flow identifiers"
// definition of §IV-A1 for rule j given the cached-rule predicate:
//
//   - j cached:   rule_j \ ∪ {rule_j' cached, rule_j' > rule_j}
//   - j uncached: rule_j \ (∪ cached rules ∪ {rule_j' uncached, rule_j' > rule_j})
func relevantFlows(rs *rules.Set, cached func(int) bool, j int) flows.Set {
	rel := rs.Rule(j).Cover.Clone()
	if cached(j) {
		for j2 := 0; j2 < rs.Len(); j2++ {
			if j2 != j && cached(j2) && rs.HigherPriority(j2, j) {
				rel.SubtractInPlace(rs.Rule(j2).Cover)
			}
		}
		return rel
	}
	for j2 := 0; j2 < rs.Len(); j2++ {
		if j2 == j {
			continue
		}
		if cached(j2) || rs.HigherPriority(j2, j) {
			rel.SubtractInPlace(rs.Rule(j2).Cover)
		}
	}
	return rel
}

// refEventWeights are the reference §IV-A1 weights, with the relevant
// flow sets they were summed from.
type refEventWeights struct {
	arrival  []float64
	relRate  []float64
	relFlows []flows.Set
	null     float64
}

// computeEventWeightsRef evaluates the §IV-A1 weights from cloned
// relevant flow sets.
func computeEventWeightsRef(rs *rules.Set, sr []float64, cached func(int) bool) refEventWeights {
	var total float64
	for _, r := range sr {
		total += r
	}
	w := refEventWeights{
		arrival:  make([]float64, rs.Len()),
		relRate:  make([]float64, rs.Len()),
		relFlows: make([]flows.Set, rs.Len()),
		null:     math.Exp(-total),
	}
	for j := 0; j < rs.Len(); j++ {
		rel := relevantFlows(rs, cached, j)
		w.relFlows[j] = rel
		gamma := rel.SumRates(sr)
		w.relRate[j] = gamma
		if gamma <= 0 {
			continue
		}
		bigGamma := total - gamma
		w.arrival[j] = gamma * math.Exp(-gamma) * math.Exp(-bigGamma)
	}
	return w
}

// buildGammaTables builds fresh γ tables for the state whose cached rules,
// in descending priority, are cached, cloning rule j's cover and
// subtracting the excluded covers for every entry.
func (e *uEstimator) buildGammaTables(cached []int) *gammaTables {
	nr := e.rs.Len()
	tab := &gammaTables{
		hp:       make([][]int, nr),
		gamma:    make([][]float64, nr),
		logGamma: make([][]float64, nr),
	}
	for j := 0; j < nr; j++ {
		var hp []int
		for slot, cj := range cached {
			if cj != j && e.rs.HigherPriority(cj, j) {
				hp = append(hp, slot)
			}
		}
		tab.hp[j] = hp
		g := make([]float64, 1<<uint(len(hp)))
		lg := make([]float64, len(g))
		for mask := range g {
			rel := e.rs.Rule(j).Cover.Clone()
			for b, slot := range hp {
				if mask&(1<<uint(b)) != 0 {
					rel.SubtractInPlace(e.rs.Rule(cached[slot]).Cover)
				}
			}
			g[mask] = rel.SumRates(e.sr)
			if g[mask] > 0 {
				lg[mask] = math.Log(g[mask])
			}
		}
		tab.gamma[j] = g
		tab.logGamma[j] = lg
	}
	return tab
}

// sortByPriorityRef orders a copy of ids by descending priority with
// sort.Slice.
func sortByPriorityRef(rs *rules.Set, ids []int) []int {
	cached := append([]int(nil), ids...)
	sort.Slice(cached, func(a, b int) bool { return rs.HigherPriority(cached[a], cached[b]) })
	return cached
}

// injectiveFeasibleRef checks Hall's condition on a sorted copy: t_(i) ≥
// i+1 for the timeouts in ascending order.
func injectiveFeasibleRef(touts []int) bool {
	s := append([]int(nil), touts...)
	sort.Ints(s)
	for i, t := range s {
		if t < i+1 {
			return false
		}
	}
	return true
}

// estimateRef is estimate without the memo, on the reference ordering,
// feasibility check and γ tables. The u-sums themselves come from the
// shared evaluate (enumerateFast has its own oracle in usum_ref_test.go).
func (e *uEstimator) estimateRef(cachedIDs []int) StateEstimates {
	if len(cachedIDs) == 0 {
		return newStateEstimates(0)
	}
	cached := sortByPriorityRef(e.rs, cachedIDs)
	touts := make([]int, len(cached))
	for i, j := range cached {
		touts[i] = e.rs.Rule(j).Timeout
	}
	if !injectiveFeasibleRef(touts) {
		return e.fallback(cached, newStateEstimates(len(cached)))
	}
	return e.evaluate(cached, touts, e.buildGammaTables(cached))
}

// refModel is the reference build of one compact chain.
type refModel struct {
	matrix *markov.Sparse
	est    []StateEstimates
}

// buildReferenceModel builds cfg's compact chain serially the way the
// clone-based path did: reference weights and estimates per state, each
// row's entries added in order to a builder with no reserved capacity.
func buildReferenceModel(cfg Config, params USumParams) (*refModel, error) {
	m := &CompactModel{cfg: cfg, sr: cfg.stepRates(), params: params}
	m.enumerateStates()
	e := &uEstimator{rs: cfg.Rules, sr: m.sr, capacity: cfg.CacheSize, params: params}
	n := len(m.states)
	ref := &refModel{matrix: markov.NewSparse(n), est: make([]StateEstimates, n)}
	for idx, mask := range m.states {
		cachedIDs := appendMaskIDs(nil, mask)
		cached := func(j int) bool { return mask&(1<<uint(j)) != 0 }
		w := computeEventWeightsRef(cfg.Rules, m.sr, cached)
		add := func(to int, p float64) { ref.matrix.Add(idx, to, p) }
		var est StateEstimates
		if len(cachedIDs) > 0 {
			est = e.estimateRef(cachedIDs)
			ref.est[idx] = est
		}
		var timeoutTotal float64
		for _, j := range cachedIDs {
			timeoutTotal += est.Timeout[j]
		}
		if timeoutTotal > 1 {
			for _, j := range cachedIDs {
				add(m.index[mask&^(1<<uint(j))], w.null*est.Timeout[j]/timeoutTotal)
			}
		} else {
			for _, j := range cachedIDs {
				add(m.index[mask&^(1<<uint(j))], w.null*est.Timeout[j])
			}
			add(idx, w.null*(1-timeoutTotal))
		}
		for j := 0; j < cfg.Rules.Len(); j++ {
			p := w.arrival[j]
			if p <= 0 {
				continue
			}
			switch {
			case cached(j):
				add(idx, p)
			case len(cachedIDs) < cfg.CacheSize:
				add(m.index[mask|1<<uint(j)], p)
			default:
				for _, v := range cachedIDs {
					to := (mask | 1<<uint(j)) &^ (1 << uint(v))
					add(m.index[to], p*est.Evict[v])
				}
			}
		}
	}
	ref.matrix.NormalizeRows()
	return ref, ref.matrix.CheckStochastic(1e-9)
}

// sequencesOfTwo lists every ordered pair of distinct candidates, first
// probe outermost.
func sequencesOfTwo(candidates []flows.ID) [][]flows.ID {
	var out [][]flows.ID
	for _, a := range candidates {
		for _, b := range candidates {
			if a == b {
				continue
			}
			out = append(out, []flows.ID{a, b})
		}
	}
	return out
}

// bestPairRef is the two-probe search evaluating every ordered pair with
// EvaluateSequence.
func (s *ProbeSelector) bestPairRef(candidates []flows.ID) (SequenceEval, bool) {
	return s.bestOver(sequencesOfTwo(candidates))
}
