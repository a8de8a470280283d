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
		hp:    make([][]int, nr),
		gamma: make([][]float64, nr),
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
		for mask := range g {
			rel := e.rs.Rule(j).Cover.Clone()
			for b, slot := range hp {
				if mask&(1<<uint(b)) != 0 {
					rel.SubtractInPlace(e.rs.Rule(cached[slot]).Cover)
				}
			}
			g[mask] = rel.SumRates(e.sr)
		}
		tab.gamma[j] = g
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

// newStateEstimates returns feasible estimates with slots for m cached
// rules; the eviction slots exist only when the table is full.
func newStateEstimates(m int, full bool) StateEstimates {
	out := StateEstimates{Timeout: make([]float64, m), Feasible: true}
	if full {
		out.Evict = make([]float64, m)
	}
	return out
}

// estimateNew is estimate into freshly allocated slots.
func (e *uEstimator) estimateNew(cachedIDs []int) StateEstimates {
	out := newStateEstimates(len(cachedIDs), len(cachedIDs) >= e.capacity)
	e.estimate(cachedIDs, &out)
	return out
}

// estimateRef is estimate on the reference ordering, feasibility check and
// γ tables. The u-sums themselves come from the shared evaluate (the
// sweep has its own oracle in usum_ref_test.go).
func (e *uEstimator) estimateRef(cachedIDs []int) StateEstimates {
	out := newStateEstimates(len(cachedIDs), len(cachedIDs) >= e.capacity)
	if len(cachedIDs) == 0 {
		return out
	}
	cached := sortByPriorityRef(e.rs, cachedIDs)
	touts := make([]int, len(cached))
	for i, j := range cached {
		touts[i] = e.rs.Rule(j).Timeout
	}
	if !injectiveFeasibleRef(touts) {
		e.fallback(cached, &out)
	} else {
		e.evaluate(cached, touts, e.buildGammaTables(cached), &out)
	}
	return out
}

// enumerateFullStates lists every §IV-B state of numRules rules and the
// given capacity, installable or not, in the compact model's order: by
// size, and within a size in lexicographic order of their ascending rule
// IDs, so the empty state is index 0. It is the full enumeration the
// model built before it kept only the subsets of the installable rules.
func enumerateFullStates(numRules, capacity int) []uint64 {
	capacity = min(capacity, numRules)
	states := make([]uint64, 0, CompactStateCount(numRules, capacity))
	var rec func(start int, mask uint64, size, want int)
	rec = func(start int, mask uint64, size, want int) {
		if size == want {
			states = append(states, mask)
			return
		}
		for j := start; j < numRules; j++ {
			rec(j+1, mask|1<<uint(j), size+1, want)
		}
	}
	for want := 0; want <= capacity; want++ {
		rec(0, 0, 0, want)
	}
	return states
}

// refModel is the reference build of one compact chain over the full
// §IV-B state space.
type refModel struct {
	cfg    Config
	states []uint64       // every subset of at most the capacity
	index  map[uint64]int // mask → full state index
	matrix *markov.Sparse
	est    []StateEstimates
}

// buildReferenceModel builds cfg's compact chain serially the way the
// clone-based path did, over every subset state: reference weights and
// estimates per state, each row's entries added in order to a builder
// with no reserved capacity, and the successor states found through a
// mask → index map rather than the model's rank.
func buildReferenceModel(cfg Config) (*refModel, error) {
	sr := cfg.stepRates()
	states := enumerateFullStates(cfg.Rules.Len(), cfg.CacheSize)
	index := make(map[uint64]int, len(states))
	for i, mask := range states {
		index[mask] = i
	}
	e := &uEstimator{rs: cfg.Rules, sr: sr, capacity: cfg.CacheSize}
	n := len(states)
	ref := &refModel{cfg: cfg, states: states, index: index, matrix: markov.NewSparse(n), est: make([]StateEstimates, n)}
	for idx, mask := range states {
		cachedIDs := appendMaskIDs(nil, mask)
		cached := func(j int) bool { return mask&(1<<uint(j)) != 0 }
		w := computeEventWeightsRef(cfg.Rules, sr, cached)
		// The row's entries in order of first appearance; a repeated
		// successor accumulates onto its entry.
		var tos []int
		var ps []float64
		add := func(to int, p float64) {
			if p == 0 {
				return
			}
			for k, t := range tos {
				if t == to {
					ps[k] += p
					return
				}
			}
			tos = append(tos, to)
			ps = append(ps, p)
		}
		var est StateEstimates
		if len(cachedIDs) > 0 {
			est = e.estimateRef(cachedIDs)
			ref.est[idx] = est
		}
		var timeoutTotal float64
		for i := range cachedIDs {
			timeoutTotal += est.Timeout[i]
		}
		if timeoutTotal > 1 {
			for i, j := range cachedIDs {
				add(index[mask&^(1<<uint(j))], w.null*est.Timeout[i]/timeoutTotal)
			}
		} else {
			for i, j := range cachedIDs {
				add(index[mask&^(1<<uint(j))], w.null*est.Timeout[i])
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
				add(index[mask|1<<uint(j)], p)
			default:
				for i, v := range cachedIDs {
					to := (mask | 1<<uint(j)) &^ (1 << uint(v))
					add(index[to], p*est.Evict[i])
				}
			}
		}
		for k, to := range tos {
			ref.matrix.Append(idx, to, ps[k])
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

// coverMask returns the rules covering f.
func (r *refModel) coverMask(f flows.ID) uint64 {
	var mask uint64
	for _, j := range r.cfg.Rules.Covering(f) {
		mask |= 1 << uint(j)
	}
	return mask
}

// splitByHit partitions d, a distribution over the full chain, by whether
// probing f hits.
func (r *refModel) splitByHit(d markov.Dist, f flows.ID) (hit, miss markov.Dist) {
	cover := r.coverMask(f)
	hit, miss = make(markov.Dist, len(d)), make(markov.Dist, len(d))
	for i, p := range d {
		if r.states[i]&cover != 0 {
			hit[i] = p
		} else {
			miss[i] = p
		}
	}
	return hit, miss
}

// applyProbe returns d, a distribution over the full chain, after the
// cache side effect of a probe of f with the given outcome: a miss
// installs f's highest-priority cover, evicting by the reference
// estimates when the table is full.
func (r *refModel) applyProbe(d markov.Dist, f flows.ID, hit bool) markov.Dist {
	out := make(markov.Dist, len(d))
	jStar, ok := r.cfg.Rules.HighestCovering(f)
	if hit || !ok {
		copy(out, d)
		return out
	}
	bit := uint64(1) << uint(jStar)
	for i, p := range d {
		if p == 0 {
			continue
		}
		mask := r.states[i]
		cachedIDs := appendMaskIDs(nil, mask)
		switch {
		case mask&bit != 0:
			out[i] += p
		case len(cachedIDs) < r.cfg.CacheSize:
			out[r.index[mask|bit]] += p
		default:
			for slot, v := range cachedIDs {
				out[r.index[(mask|bit)&^(1<<uint(v))]] += p * r.est[i].Evict[slot]
			}
		}
	}
	return out
}

// reachable returns the states the full chain reaches from the empty
// cache through transitions of positive probability, by breadth-first
// search.
func (r *refModel) reachable() map[uint64]bool {
	seen := map[uint64]bool{r.states[0]: true}
	queue := []int{0}
	for len(queue) > 0 {
		from := queue[0]
		queue = queue[1:]
		tos, ps := r.matrix.Row(from)
		for k, to := range tos {
			if ps[k] > 0 && !seen[r.states[to]] {
				seen[r.states[to]] = true
				queue = append(queue, to)
			}
		}
	}
	return seen
}
