package core

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"flowrecon/internal/rules"
)

// StateEstimates are the §IV-B conditional probabilities for one compact
// state: which cached rule is evicted when a full table takes an install,
// and the probability each cached rule times out.
//
// Estimates may be shared between models via the u-sum memo (see
// usumMemo); treat the maps as immutable after estimate returns.
type StateEstimates struct {
	// Evict[j] is P(rule j has the smallest remaining time | cached),
	// Eqn (5)/Eqn (3), normalized over the cached rules. Keyed by rule ID.
	Evict map[int]float64
	// Timeout[j] is P(rule j should time out | cached), Eqn (7)/Eqn (3).
	Timeout map[int]float64
	// Exact reports whether the u-sums were enumerated exactly (true) or
	// estimated by Monte Carlo sampling (false).
	Exact bool
	// Feasible is false when no injective most-recent-match assignment u
	// exists (or all have zero probability); Evict then falls back to
	// uniform and Timeout to zero.
	Feasible bool
}

// USumParams tunes the estimator.
type USumParams struct {
	// ExactLimit is the largest assignment-grid size (Π t_j over cached
	// rules) enumerated exactly.
	ExactLimit int
	// MCSamples is the number of Monte Carlo samples used above the
	// exact limit.
	MCSamples int
	// Seed drives the Monte Carlo sampler; per-state streams are derived
	// from it deterministically.
	Seed int64
}

// DefaultUSumParams returns the defaults used by the compact model.
func DefaultUSumParams() USumParams {
	return USumParams{ExactLimit: 20000, MCSamples: 1500, Seed: 1}
}

// uEstimator evaluates the u-sums of §IV-B for states of one model
// configuration. It carries reusable scratch, so each concurrent build
// worker must own its own estimator (the underlying rule set and rates
// are shared read-only).
type uEstimator struct {
	rs       *rules.Set
	sr       []float64 // per-step flow rates λ_f·Δ
	capacity int
	params   USumParams

	// Scratch reused across estimate calls (never escapes).
	scr enumScratch
}

// estimate computes the eviction distribution and timeout probabilities
// for the compact state caching exactly cachedIDs. Results are memoized
// across estimators (and hence across the M and M₀ chains) keyed by the
// numerical inputs of the computation, so a state whose effective rates
// are unaffected by the target's zeroed rate is computed once.
func (e *uEstimator) estimate(cachedIDs []int) StateEstimates {
	m := len(cachedIDs)
	out := StateEstimates{
		Evict:    make(map[int]float64, m),
		Timeout:  make(map[int]float64, m),
		Feasible: true,
		Exact:    true,
	}
	if m == 0 {
		return out
	}

	// Order cached rules by descending priority so that, during
	// enumeration, a rule's higher-priority cached rules are the prefix.
	cached := make([]int, m)
	copy(cached, cachedIDs)
	sort.Slice(cached, func(a, b int) bool {
		return e.rs.HigherPriority(cached[a], cached[b])
	})
	touts := make([]int, m)
	for i, j := range cached {
		touts[i] = e.rs.Rule(j).Timeout
	}

	if !injectiveFeasible(touts) {
		return e.fallback(cached, out)
	}

	tab := e.buildGammaTables(cached)

	key := usumKeyOf(e, cached, touts, tab)
	if hit, ok := sharedUSumMemo.get(key); ok {
		obsMemo(true)
		return hit
	}
	obsMemo(false)

	// Decide exact enumeration vs Monte Carlo by grid size.
	grid := 1.0
	for _, t := range touts {
		grid *= float64(t)
	}
	acc := newUAccumulator(cached, touts, e)
	if grid <= float64(e.params.ExactLimit) {
		e.enumerateFast(cached, touts, tab, acc)
	} else {
		out.Exact = false
		e.sample(touts, tab, acc, cached)
	}

	if acc.z <= 0 {
		return e.fallback(cached, out)
	}
	var evictSum float64
	for i, j := range cached {
		out.Timeout[j] = clamp01(acc.timeoutNum[i] / acc.z)
		out.Evict[j] = acc.evictNum[i] / acc.z
		evictSum += out.Evict[j]
	}
	if evictSum > 0 {
		for j := range out.Evict {
			out.Evict[j] /= evictSum
		}
	} else {
		for _, j := range cached {
			out.Evict[j] = 1 / float64(m)
		}
	}
	sharedUSumMemo.put(key, out)
	return out
}

// fallback marks the state infeasible and returns uniform eviction with
// zero timeout probability.
func (e *uEstimator) fallback(cached []int, out StateEstimates) StateEstimates {
	out.Feasible = false
	for _, j := range cached {
		out.Evict[j] = 1 / float64(len(cached))
		out.Timeout[j] = 0
	}
	return out
}

// injectiveFeasible checks Hall's condition for distinct values u(j) ∈
// [1, t_j]: after sorting timeouts ascending, t_(i) ≥ i+1 must hold.
func injectiveFeasible(touts []int) bool {
	s := make([]int, len(touts))
	copy(s, touts)
	sort.Ints(s)
	for i, t := range s {
		if t < i+1 {
			return false
		}
	}
	return true
}

// gammaTables holds, for every rule j and every subset of j's
// higher-priority cached rules, the effective rate γ of Eqn (1) when
// exactly that subset is excluded (i.e. was last matched more than k steps
// ago). hp[j] lists the cached-slot indices of j's higher-priority cached
// rules; gamma[j] is indexed by a bitmask over hp[j]. logGamma caches
// log γ so the per-assignment hot loop is free of math.Log calls (entries
// with γ ≤ 0 are rejected before the log is read).
type gammaTables struct {
	hp       [][]int
	gamma    [][]float64
	logGamma [][]float64
}

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

// gammaAt returns γ_{ℓ,u}(j, k): rule j's effective rate at step ℓ-k given
// the assignment u over cached slots.
func (t *gammaTables) gammaAt(j, k int, u []int) float64 {
	mask := 0
	for b, slot := range t.hp[j] {
		if u[slot] > k {
			mask |= 1 << uint(b)
		}
	}
	return t.gamma[j][mask]
}

// maskAt returns the exclusion bitmask of rule j at step offset k.
func (t *gammaTables) maskAt(j, k int, u []int) int {
	mask := 0
	for b, slot := range t.hp[j] {
		if u[slot] > k {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

// sumGammaRange returns Σ_{k=1..kmax} γ_{ℓ,u}(j, k). The mask {j' : u(j') >
// k} only changes at the assigned u values, so the sum is evaluated
// segment-wise: between consecutive breakpoints γ is constant.
func (t *gammaTables) sumGammaRange(j, kmax int, u []int) float64 {
	return t.sumGammaSpan(j, 0, kmax, u)
}

// sumGammaSpan returns Σ_{k=lo+1..hi} γ_{ℓ,u}(j, k), the tail form needed
// by the full-table horizon correction.
func (t *gammaTables) sumGammaSpan(j, lo, hi int, u []int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 0
	}
	hp := t.hp[j]
	if len(hp) == 0 {
		return float64(hi-lo) * t.gamma[j][0]
	}
	sum := 0.0
	k := lo + 1
	for k <= hi {
		// Mask for the segment starting at k, and the segment's end: the
		// smallest breakpoint u(slot) > k bounds the constant stretch
		// (slot drops out of the mask at k = u(slot)).
		mask := 0
		next := hi + 1
		for b, slot := range hp {
			if u[slot] > k {
				mask |= 1 << uint(b)
				if u[slot] < next {
					next = u[slot]
				}
			}
		}
		if next > hi+1 {
			next = hi + 1
		}
		sum += float64(next-k) * t.gamma[j][mask]
		k = next
	}
	return sum
}

// uAccumulator gathers Σ P(u) (Eqn 3), Σ P(u)·1[min-remaining] (Eqn 5) and
// Σ P(u)·1[u(j)=t_j] (Eqn 7) over the enumerated or sampled assignments.
type uAccumulator struct {
	z          float64
	evictNum   []float64
	timeoutNum []float64

	cached   []int
	touts    []int
	est      *uEstimator
	uncached []int // rule IDs not cached
}

func newUAccumulator(cached, touts []int, e *uEstimator) *uAccumulator {
	acc := &uAccumulator{
		evictNum:   make([]float64, len(cached)),
		timeoutNum: make([]float64, len(cached)),
		cached:     cached,
		touts:      touts,
		est:        e,
	}
	var inCache uint32
	for _, j := range cached {
		inCache |= 1 << uint(j)
	}
	for j := 0; j < e.rs.Len(); j++ {
		if inCache&(1<<uint(j)) == 0 {
			acc.uncached = append(acc.uncached, j)
		}
	}
	return acc
}

// accumulate folds one assignment with probability p into the sums.
func (a *uAccumulator) accumulate(u []int, p float64) {
	a.z += p
	minRem := math.MaxInt32
	for i := range a.cached {
		if rem := a.touts[i] - u[i]; rem < minRem {
			minRem = rem
		}
		if u[i] == a.touts[i] {
			a.timeoutNum[i] += p
		}
	}
	for i := range a.cached {
		if a.touts[i]-u[i] == minRem {
			// Condition (4) with ties counted for every minimizer.
			a.evictNum[i] += p
		}
	}
}

// observe evaluates P(u) for a complete assignment and folds it into the
// accumulators. Used by the Monte Carlo path; the exact path accumulates
// log P(u) incrementally along the DFS instead.
func (a *uAccumulator) observe(u []int, tab *gammaTables) {
	p := a.probability(u, tab)
	if p <= 0 {
		return
	}
	a.accumulate(u, p)
}

// probability evaluates P(u) per §IV-B for one Monte Carlo sample,
// choosing the |C|<n or |C|=n form of the uncached-rule horizon. The
// cached rules' own-step factors are direct table lookups; every rule's
// Σ_k γ range term is then folded in a single sweep over the segments
// between sorted assignment values — the exclusion mask of every rule is
// constant within a segment, and the projection tables from prepSweep
// turn each per-segment mask lookup into O(1). One sample costs
// O(m log m + segments · |Rules|) instead of the per-rule segment rescans
// sumGammaSpan would pay.
// probability evaluates P(u) per §IV-B for one Monte Carlo sample,
// choosing the |C|<n or |C|=n form of the uncached-rule horizon. The
// work per sample is restructured around the tables prepSweep builds for
// the state:
//
//   - cached rules with no higher-priority cached rule ("flat") have a
//     constant rate, so their own-step and range factors are closed-form;
//   - flat uncached rules fold into one lookup of the (flatT, flatR)
//     threshold tables indexed by the full-table slack;
//   - masked uncached rules fold into two lookups per sweep segment of a
//     prefix table P[A][k] (A the set of still-pending cached slots);
//   - masked cached rules walk the sweep segments with O(1) gamma-value
//     lookups from the slot-set-indexed SoA table.
//
// One sample therefore costs O(m log m + segments·(|masked cached| + 1))
// instead of the per-rule segment rescans sumGammaSpan would pay.
func (a *uAccumulator) probability(u []int, tab *gammaTables) float64 {
	e := a.est
	s := &e.scr
	m := len(a.cached)
	// Slots in ascending assignment order bound the sweep's segments and
	// give each slot its set of still-pending peers (u strictly larger).
	// Values are packed as u<<6|slot so the insertion sort compares plain
	// ints without indirection (u is injective, so ties cannot occur).
	ov := s.order[:m]
	for i := range ov {
		ov[i] = u[i]<<6 | i
	}
	for i := 1; i < m; i++ {
		for p := i; p > 0 && ov[p] < ov[p-1]; p-- {
			ov[p], ov[p-1] = ov[p-1], ov[p]
		}
	}
	after := (1 << uint(m)) - 1
	for _, pv := range ov {
		after &^= 1 << uint(pv&63)
		s.aAfter[pv&63] = after
	}
	logp := 0.0
	sum := 0.0
	maxHi := 0
	cm := len(s.cmSlots)
	for i, j := range a.cached {
		ci := s.slotToCM[i]
		if ci < 0 {
			g := tab.gamma[j][0]
			if g <= 0 {
				return 0
			}
			logp += tab.logGamma[j][0] - g
			sum += float64(u[i]-1) * g
			continue
		}
		at := s.aAfter[i]*cm + ci
		g := s.cmGval[at]
		if g <= 0 {
			return 0
		}
		logp += tab.logGamma[j][s.cmProj[at]] - g
		h := u[i] - 1
		s.cmHi[ci] = h
		if h > maxHi {
			maxHi = h
		}
	}
	full := m >= e.capacity
	minSlack := 0
	if full {
		minSlack = math.MaxInt32
		for i := range a.cached {
			if sl := a.touts[i] - u[i]; sl < minSlack {
				minSlack = sl
			}
		}
	}
	// Flat uncached rules: closed form via the threshold tables.
	if ms := minSlack; ms < len(s.flatT) {
		sum += s.flatT[ms] - float64(ms)*s.flatR[ms]
	}
	pk := s.pStride // maxK+1 over masked uncached rules; 0 when none
	if pk > 0 {
		if h := pk - 1 - minSlack; h > maxHi {
			maxHi = h
		}
	}
	if maxHi > 0 {
		active := (1 << uint(m)) - 1
		k, bi := 1, 0
		for k <= maxHi {
			for bi < m && ov[bi]>>6 <= k {
				active &^= 1 << uint(ov[bi]&63)
				bi++
			}
			next := maxHi + 1
			if bi < m && ov[bi]>>6 < next {
				next = ov[bi] >> 6
			}
			end := next - 1
			if pk > 0 {
				// Masked uncached rules: P[A][end+ms] − P[A][k−1+ms].
				base := active * pk
				lo, hi := k-1+minSlack, end+minSlack
				if lo > pk-1 {
					lo = pk - 1
				}
				if hi > pk-1 {
					hi = pk - 1
				}
				sum += s.pTab[base+hi] - s.pTab[base+lo]
			}
			gv := s.cmGval[active*cm : active*cm+cm]
			for ci, hj := range s.cmHi {
				if hj >= k {
					e2 := end
					if hj < e2 {
						e2 = hj
					}
					sum += float64(e2-k+1) * gv[ci]
				}
			}
			k = next
		}
	}
	return math.Exp(logp - sum)
}

// enumScratch holds the reusable buffers of the incremental exact
// enumeration and the Monte Carlo sweep.
type enumScratch struct {
	u      []int
	used   []bool
	ready  [][]int // ready[d]: uncached rules computable once slots < d assigned
	dropAt [][]int // per-depth mask-drop table indexed by step offset

	// Monte Carlo sweep tables (prepSweep / probability).
	order        []int     // slot indices sorted by assigned value
	aAfter       []int     // per slot: set of slots with larger assigned value
	slotBit      []uint8   // scratch: slot → bit position in the current rule's hp
	flatT, flatR []float64 // threshold tables for flat uncached rules
	cmSlots      []int     // cached slots whose rule has a nonempty hp
	slotToCM     []int     // slot → index into cmSlots (−1 if flat)
	cmProj       []uint8   // [A][ci] gamma index of cached-masked rule ci under slot set A
	cmGval       []float64 // [A][ci] gamma value, same layout
	cmHi         []int     // per cached-masked rule: sweep horizon for this sample
	muRules      []int     // masked uncached rule IDs
	muProj       []uint8   // [A][mi] gamma index of masked uncached rule mi
	muGval       []float64 // [A][mi] gamma value, same layout
	bucket       []float64 // per-step accumulation scratch for pTab
	pTab         []float64 // [A][k] prefix sums over masked uncached rules
	pStride      int       // pTab row length (maxK+1); 0 when no masked uncached
}

// prepSweep builds the per-state tables used by the Monte Carlo
// probability sweep. Rules are split by whether any cached rule outranks
// them ("masked") or not ("flat" — their rate never depends on the
// assignment):
//
//   - flat uncached rules: threshold tables flatT[ms] = Σ_{t_j>ms} t_j·γ_j
//     and flatR[ms] = Σ_{t_j>ms} γ_j, so the horizon-(t_j−ms) range sum
//     is flatT[ms] − ms·flatR[ms] for any full-table slack ms;
//   - masked cached rules: SoA tables cmProj/cmGval indexed by
//     [pending-slot set A][rule], giving O(1) mask and gamma lookups;
//   - masked uncached rules: pTab[A][k] = Σ_{k'=1..k} Σ_{j: t_j≥k'}
//     γ_j(A), a prefix table that turns each sweep segment's contribution
//     from all masked uncached rules into a two-lookup difference.
//
// Built once per sampled state and amortized over all of its samples.
func (e *uEstimator) prepSweep(m int, tab *gammaTables, acc *uAccumulator) {
	s := &e.scr
	nSets := 1 << uint(m)
	if cap(s.order) < m {
		s.order = make([]int, m)
		s.aAfter = make([]int, m)
		s.slotToCM = make([]int, m)
	}
	s.order = s.order[:m]
	s.aAfter = s.aAfter[:m]
	s.slotToCM = s.slotToCM[:m]
	if cap(s.slotBit) < m {
		s.slotBit = make([]uint8, m)
	}
	s.slotBit = s.slotBit[:m]

	// Classify cached slots.
	s.cmSlots = s.cmSlots[:0]
	for i, j := range acc.cached {
		if len(tab.hp[j]) > 0 {
			s.slotToCM[i] = len(s.cmSlots)
			s.cmSlots = append(s.cmSlots, i)
		} else {
			s.slotToCM[i] = -1
		}
	}
	// Classify uncached rules.
	s.muRules = s.muRules[:0]
	maxTFlat, maxK := 0, 0
	for _, j := range acc.uncached {
		t := e.rs.Rule(j).Timeout
		if len(tab.hp[j]) == 0 {
			if t > maxTFlat {
				maxTFlat = t
			}
		} else {
			s.muRules = append(s.muRules, j)
			if t > maxK {
				maxK = t
			}
		}
	}

	// Flat uncached threshold tables.
	if cap(s.flatT) < maxTFlat+1 {
		s.flatT = make([]float64, maxTFlat+1)
		s.flatR = make([]float64, maxTFlat+1)
	}
	s.flatT = s.flatT[:maxTFlat+1]
	s.flatR = s.flatR[:maxTFlat+1]
	for i := range s.flatT {
		s.flatT[i], s.flatR[i] = 0, 0
	}
	for _, j := range acc.uncached {
		if len(tab.hp[j]) == 0 {
			t := e.rs.Rule(j).Timeout
			g := tab.gamma[j][0]
			for ms := 0; ms < t; ms++ {
				s.flatT[ms] += float64(t) * g
				s.flatR[ms] += g
			}
		}
	}

	// Masked cached SoA tables, built per rule by subset DP over A:
	// proj(A) = proj(A minus lowest bit) | bit of that slot in hp.
	cm := len(s.cmSlots)
	if need := nSets * cm; cap(s.cmProj) < need {
		s.cmProj = make([]uint8, need)
		s.cmGval = make([]float64, need)
	}
	s.cmProj = s.cmProj[:nSets*cm]
	s.cmGval = s.cmGval[:nSets*cm]
	if cap(s.cmHi) < cm {
		s.cmHi = make([]int, cm)
	}
	s.cmHi = s.cmHi[:cm]
	fillSoA := func(dstProj []uint8, dstGval []float64, stride, idx, j int) {
		for slot := range s.slotBit {
			s.slotBit[slot] = 0
		}
		for b, slot := range tab.hp[j] {
			s.slotBit[slot] = 1 << uint(b)
		}
		dstProj[idx] = 0
		dstGval[idx] = tab.gamma[j][0]
		for A := 1; A < nSets; A++ {
			pv := dstProj[(A&(A-1))*stride+idx] | s.slotBit[bits.TrailingZeros32(uint32(A))]
			dstProj[A*stride+idx] = pv
			dstGval[A*stride+idx] = tab.gamma[j][pv]
		}
	}
	for ci, i := range s.cmSlots {
		fillSoA(s.cmProj, s.cmGval, cm, ci, acc.cached[i])
	}

	// Masked uncached prefix tables.
	mu := len(s.muRules)
	if mu == 0 {
		s.pStride = 0
		return
	}
	s.pStride = maxK + 1
	if need := nSets * mu; cap(s.muGval) < need {
		s.muGval = make([]float64, need)
	}
	s.muGval = s.muGval[:nSets*mu]
	if need := nSets * mu; cap(s.muProj) < need {
		s.muProj = make([]uint8, need)
	}
	s.muProj = s.muProj[:nSets*mu]
	for mi, j := range s.muRules {
		fillSoA(s.muProj, s.muGval, mu, mi, j)
	}
	if cap(s.bucket) < maxK+1 {
		s.bucket = make([]float64, maxK+1)
	}
	s.bucket = s.bucket[:maxK+1]
	if need := nSets * s.pStride; cap(s.pTab) < need {
		s.pTab = make([]float64, need)
	}
	s.pTab = s.pTab[:nSets*s.pStride]
	for A := 0; A < nSets; A++ {
		for k := range s.bucket {
			s.bucket[k] = 0
		}
		for mi, j := range s.muRules {
			s.bucket[e.rs.Rule(j).Timeout] += s.muGval[A*mu+mi]
		}
		// H[k] = Σ_{t_j ≥ k} γ_j(A) by suffix accumulation, then prefix
		// sums P[k] = Σ_{k'≤k} H[k'] in place.
		base := A * s.pStride
		suf := 0.0
		for k := maxK; k >= 1; k-- {
			suf += s.bucket[k]
			s.pTab[base+k] = suf
		}
		s.pTab[base] = 0
		for k := 1; k <= maxK; k++ {
			s.pTab[base+k] += s.pTab[base+k-1]
		}
	}
}

// enumerateFast walks every injective assignment u over the cached slots,
// accumulating log P(u) incrementally along the DFS:
//
//   - cached rule at slot i contributes log γ − γ − Σ_{k<u(i)} γ(k), all of
//     which depend only on u(0..i) because the higher-priority cached
//     rules of slot i are a prefix of the slot order; the prefix sum and
//     exclusion mask are maintained in O(1) amortized per candidate value
//     instead of a fresh O(|hp|·segments) walk per leaf.
//   - uncached rules contribute −Σ_{k≤horizon} γ(k) as soon as their last
//     higher-priority cached slot is assigned; under a full table the
//     horizon shrinks by the leaf-dependent minimum slack, applied as a
//     tail correction at the leaf.
func (e *uEstimator) enumerateFast(cached, touts []int, tab *gammaTables, acc *uAccumulator) {
	m := len(cached)
	maxT := 0
	for _, t := range touts {
		if t > maxT {
			maxT = t
		}
	}
	s := &e.scr
	if cap(s.u) < m {
		s.u = make([]int, m)
	}
	s.u = s.u[:m]
	if cap(s.used) < maxT+2 {
		s.used = make([]bool, maxT+2)
	}
	s.used = s.used[:maxT+2]
	for i := range s.used {
		s.used[i] = false
	}
	if cap(s.ready) < m+1 {
		s.ready = make([][]int, m+1)
	}
	s.ready = s.ready[:m+1]
	for d := range s.ready {
		s.ready[d] = s.ready[d][:0]
	}
	if cap(s.dropAt) < m {
		s.dropAt = make([][]int, m)
	}
	s.dropAt = s.dropAt[:m]
	for d := range s.dropAt {
		if cap(s.dropAt[d]) < maxT+2 {
			s.dropAt[d] = make([]int, maxT+2)
		}
		s.dropAt[d] = s.dropAt[d][:maxT+2]
	}
	// Group uncached rules by the depth at which all their
	// higher-priority cached slots are assigned.
	for _, j := range acc.uncached {
		d := 0
		for _, slot := range tab.hp[j] {
			if slot+1 > d {
				d = slot + 1
			}
		}
		s.ready[d] = append(s.ready[d], j)
	}
	full := m >= e.capacity
	e.dfs(0, 0, cached, touts, tab, acc, full)
}

func (e *uEstimator) dfs(slot int, logp float64, cached, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.scr
	// Fold in the uncached rules whose dependencies are now assigned,
	// over their full (table-not-full) horizon.
	for _, j := range s.ready[slot] {
		logp -= tab.sumGammaRange(j, e.rs.Rule(j).Timeout, s.u)
	}
	m := len(cached)
	if slot == m {
		e.leaf(logp, touts, tab, acc, full)
		return
	}
	js := cached[slot]
	t := touts[slot]
	hp := tab.hp[js]
	// dropAt[v] is the mask of hp bits whose assigned u equals v: the
	// bit leaves the exclusion mask when the step offset reaches it.
	drop := s.dropAt[slot]
	for v := 0; v <= t; v++ {
		drop[v] = 0
	}
	mask := 0
	for b, sl := range hp {
		mask |= 1 << uint(b)
		if ub := s.u[sl]; ub <= t {
			drop[ub] |= 1 << uint(b)
		}
	}
	sumPrefix := 0.0 // Σ_{k=1..v-1} γ(js, k)
	gamma, logGamma := tab.gamma[js], tab.logGamma[js]
	for v := 1; v <= t; v++ {
		mask &^= drop[v]
		g := gamma[mask]
		if !s.used[v] && g > 0 {
			s.u[slot] = v
			s.used[v] = true
			e.dfs(slot+1, logp+logGamma[mask]-g-sumPrefix, cached, touts, tab, acc, full)
			s.used[v] = false
		}
		sumPrefix += g
	}
}

// leaf applies the full-table horizon correction and accumulates.
func (e *uEstimator) leaf(logp float64, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	u := e.scr.u
	if full {
		minSlack := math.MaxInt32
		for i := range u {
			if s := touts[i] - u[i]; s < minSlack {
				minSlack = s
			}
		}
		if minSlack > 0 {
			// The pre-folded horizon was t_j; the full-table horizon is
			// t_j − minSlack, so add back the tail Σ_{k>t_j−minSlack} γ.
			for _, j := range acc.uncached {
				t := e.rs.Rule(j).Timeout
				logp += tab.sumGammaSpan(j, t-minSlack, t, u)
			}
		}
	}
	p := math.Exp(logp)
	if p <= 0 {
		return
	}
	acc.accumulate(u, p)
}

// sample draws MCSamples injective assignments uniformly (via rejection)
// and feeds them to the accumulator. Uniform sampling over the same grid
// the exact sum ranges over makes every accumulated ratio a consistent
// estimator of the corresponding ratio of sums. The stream is a cheap
// splitmix-style generator seeded deterministically from the state
// content, so results are independent of evaluation order (and hence of
// build parallelism).
func (e *uEstimator) sample(touts []int, tab *gammaTables, acc *uAccumulator, cached []int) {
	seed := e.params.Seed
	for _, j := range cached {
		seed = seed*1000003 + int64(j)*7919 + int64(e.rs.Rule(j).Timeout)
	}
	rng := splitmix{s: uint64(seed)}
	e.prepSweep(len(touts), tab, acc)
	u := e.scr.u
	if cap(u) < len(touts) {
		u = make([]int, len(touts))
	}
	u = u[:len(touts)]
	for s := 0; s < e.params.MCSamples; s++ {
		if !sampleInjective(&rng, touts, u) {
			continue
		}
		acc.observe(u, tab)
	}
}

// splitmix is a tiny deterministic PRNG (SplitMix64 finalizer) for the
// Monte Carlo path: one word of state that lives on the stack, where a
// stats.RNG is a heap object carrying ~4.9 KiB of lagged-Fibonacci state
// — one stream per state evaluated, so the difference adds up.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// intn returns a value in [0, n) by fixed-point reduction (one multiply,
// no division). The bias is ≤ n/2⁶⁴, far below the Monte Carlo noise
// floor for the timeout-sized n used here.
func (r *splitmix) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// sampleInjective fills u with distinct uniform values u[i] ∈ [1, touts[i]],
// retrying on collisions. It reports success.
func sampleInjective(rng *splitmix, touts []int, u []int) bool {
	const maxAttempts = 64
	// Timeouts below 64 steps (the common case) use a one-word occupancy
	// bitmask for the distinctness check; larger grids fall back to the
	// quadratic scan. Either way the accepted tuples are uniform over the
	// injective grid — rejection discards whole draws only.
	small := true
	for _, t := range touts {
		if t > 63 {
			small = false
			break
		}
	}
	if small {
		for attempt := 0; attempt < maxAttempts; attempt++ {
			var seen uint64
			ok := true
			for i, t := range touts {
				v := 1 + rng.intn(t)
				if seen&(1<<uint(v)) != 0 {
					ok = false
					break
				}
				seen |= 1 << uint(v)
				u[i] = v
			}
			if ok {
				return true
			}
		}
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		ok := true
		for i, t := range touts {
			u[i] = 1 + rng.intn(t)
		}
		for i := 0; i < len(u) && ok; i++ {
			for k := i + 1; k < len(u); k++ {
				if u[i] == u[k] {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ---- u-sum memoization -------------------------------------------------

// usumKey is a 128-bit hash over every numerical input of estimate: the
// cached slot order (rule IDs and timeouts), the uncached rules and their
// timeouts, the full-table flag, the estimator parameters, and the raw
// bits of every γ table entry. Two states with equal keys are guaranteed
// (up to hash collision) to produce identical estimates, which is what
// lets the M and M₀ chains share work: zeroing the target's rate leaves
// most states' effective rates untouched.
type usumKey struct{ h1, h2 uint64 }

type keyHasher struct{ h1, h2 uint64 }

func newKeyHasher() keyHasher {
	return keyHasher{h1: 1469598103934665603, h2: 0x9e3779b97f4a7c15}
}

func (h *keyHasher) word(v uint64) {
	h.h1 = (h.h1 ^ v) * 1099511628211
	h.h2 = (h.h2^(v>>32|v<<32))*0x9E3779B185EBCA87 ^ (h.h2 >> 29)
}

func usumKeyOf(e *uEstimator, cached, touts []int, tab *gammaTables) usumKey {
	h := newKeyHasher()
	h.word(uint64(len(cached)))
	full := uint64(0)
	if len(cached) >= e.capacity {
		full = 1
	}
	h.word(full)
	h.word(uint64(e.params.ExactLimit))
	h.word(uint64(e.params.MCSamples))
	h.word(uint64(e.params.Seed))
	for i, j := range cached {
		h.word(uint64(j)<<16 | uint64(touts[i]))
	}
	for j := 0; j < e.rs.Len(); j++ {
		h.word(uint64(j)<<16 | uint64(e.rs.Rule(j).Timeout))
		for _, slot := range tab.hp[j] {
			h.word(uint64(slot) + 0xabcd)
		}
		for _, g := range tab.gamma[j] {
			h.word(math.Float64bits(g))
		}
	}
	return usumKey{h.h1, h.h2}
}

// usumMemo is the process-wide bounded memo of u-sum estimates. On
// overflow the memo resets wholesale — the working set of one model pair
// fits comfortably, so eviction sophistication buys nothing.
type usumMemo struct {
	mu sync.RWMutex
	m  map[usumKey]StateEstimates
}

const usumMemoMax = 1 << 15

var sharedUSumMemo = &usumMemo{m: make(map[usumKey]StateEstimates)}

func (c *usumMemo) get(k usumKey) (StateEstimates, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

func (c *usumMemo) put(k usumKey, v StateEstimates) {
	c.mu.Lock()
	if len(c.m) >= usumMemoMax {
		c.m = make(map[usumKey]StateEstimates, usumMemoMax/4)
	}
	c.m[k] = v
	c.mu.Unlock()
}

// ResetUSumMemo empties the process-wide u-sum memo. Benchmarks call it
// to measure cold builds; production code never needs to.
func ResetUSumMemo() {
	sharedUSumMemo.mu.Lock()
	sharedUSumMemo.m = make(map[usumKey]StateEstimates)
	sharedUSumMemo.mu.Unlock()
}

// USumMemoLen reports the number of memoized estimates (diagnostics).
func USumMemoLen() int {
	sharedUSumMemo.mu.RLock()
	defer sharedUSumMemo.mu.RUnlock()
	return len(sharedUSumMemo.m)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clampExp is math.Exp with its argument assumed ≤ 0 (probability decay).
func clampExp(x float64) float64 {
	if x > 0 {
		x = 0
	}
	return math.Exp(x)
}
