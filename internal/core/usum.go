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
	cover    *coverTable // the model's, shared read-only; built on first use when unset

	// Scratch reused across calls. Nothing here outlives a call except
	// slab, which holds buildRow's entries until the build assembles them.
	scr   enumScratch
	tab   gammaTables
	order byPriority // the state's cached rules, descending priority
	touts []int      // their timeouts, slot-aligned with order.ids
	ids   []int      // buildRow's cached rule IDs, ascending
	w     eventWeights
	acc   uAccumulator
	slab  rowSlab
}

// covers returns the estimator's cover table, building it on first use
// when the estimator was not given one.
func (e *uEstimator) covers() *coverTable {
	if e.cover == nil {
		e.cover = newCoverTable(e.rs, len(e.sr))
	}
	return e.cover
}

// byPriority orders rule IDs by descending priority. The estimator owns
// one, so ordering a state's cached rules allocates nothing. sort.Sort
// and sort.Slice run the same pdqsort (both are generated from one
// template), so rules of equal priority — which rules.Set allows for
// disjoint rules — land exactly where sort.Slice puts them.
type byPriority struct {
	rs  *rules.Set
	ids []int
}

func (p *byPriority) Len() int           { return len(p.ids) }
func (p *byPriority) Less(a, b int) bool { return p.rs.HigherPriority(p.ids[a], p.ids[b]) }
func (p *byPriority) Swap(a, b int)      { p.ids[a], p.ids[b] = p.ids[b], p.ids[a] }

// newStateEstimates returns feasible, exact estimates with room for m
// cached rules.
func newStateEstimates(m int) StateEstimates {
	return StateEstimates{
		Evict:    make(map[int]float64, m),
		Timeout:  make(map[int]float64, m),
		Feasible: true,
		Exact:    true,
	}
}

// estimate computes the eviction distribution and timeout probabilities
// for the compact state caching exactly cachedIDs. Results, infeasible
// verdicts included, are memoized across estimators keyed by the
// numerical inputs of the computation, so rebuilding an identical model
// evaluates no state twice. Everything up to the memo lookup runs in
// estimator scratch, so a memo hit on a warm estimator allocates nothing.
func (e *uEstimator) estimate(cachedIDs []int) StateEstimates {
	m := len(cachedIDs)
	if m == 0 {
		return newStateEstimates(0)
	}

	cached, touts := e.orderCached(cachedIDs)
	if !injectiveFeasible(touts) {
		return e.fallback(cached, newStateEstimates(m))
	}

	tab := e.fillGammaTables(cached)

	key := usumKeyOf(e, cached, touts, tab)
	if hit, ok := sharedUSumMemo.get(key); ok {
		obsMemo(true)
		return hit
	}
	obsMemo(false)
	tab.fillLogs()
	out := e.evaluate(cached, touts, tab)
	sharedUSumMemo.put(key, out)
	return out
}

// evaluate computes a feasible state's estimates from its u-sums, without
// the memo: cached holds the state's rules in descending priority, touts
// their timeouts and tab its γ tables. The state is marked infeasible
// when every assignment has zero probability.
func (e *uEstimator) evaluate(cached, touts []int, tab *gammaTables) StateEstimates {
	m := len(cached)
	out := newStateEstimates(m)
	// Decide exact enumeration vs Monte Carlo by grid size.
	grid := 1.0
	for _, t := range touts {
		grid *= float64(t)
	}
	acc := &e.acc
	acc.reset(cached, touts, e)
	if grid <= float64(e.params.ExactLimit) {
		e.enumerateFast(cached, touts, tab, acc)
		obsUSum(true, e.scr.leaves)
	} else {
		out.Exact = false
		e.sample(touts, tab, acc, cached)
		obsUSum(false, 0)
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
	return out
}

// orderCached copies cachedIDs into estimator scratch in descending
// priority, so that during enumeration a rule's higher-priority cached
// rules are the prefix, and returns them with their timeouts. Both
// slices are valid until the next call.
func (e *uEstimator) orderCached(cachedIDs []int) (cached, touts []int) {
	e.order.rs = e.rs
	e.order.ids = append(e.order.ids[:0], cachedIDs...)
	sort.Sort(&e.order)
	e.touts = resize(e.touts, len(cachedIDs))
	for i, j := range e.order.ids {
		e.touts[i] = e.rs.Rule(j).Timeout
	}
	return e.order.ids, e.touts
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
// [1, t_j]: for every k, at most k timeouts may be ≤ k. The count only
// rises at the timeouts themselves, so checking k = each t_j suffices —
// the same verdict as sorting ascending and requiring t_(i) ≥ i+1, with
// no sorted copy to allocate.
func injectiveFeasible(touts []int) bool {
	for _, t := range touts {
		n := 0
		for _, t2 := range touts {
			if t2 <= t {
				n++
			}
		}
		if n > t {
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
// with γ ≤ 0 hold 0 and are rejected before the log is read).
//
// The tables live in estimator scratch and are refilled per state by
// uEstimator.fillGammaTables from the cover-table kernel: γ(j, mask) is the
// sum of sr[f] over rule j's flows in ascending order, skipping any flow
// an excluded rule covers. Those are the additions flows.Set.SumRates
// makes over rule j's cover with the excluded covers subtracted, so every
// entry — and hence the memo key hashed from them — is bit-identical to
// the clone-and-subtract construction (kept in the tests as the oracle).
// The memo key reads only hp and gamma, so logGamma is filled (fillLogs)
// only once the lookup has missed.
type gammaTables struct {
	hp       [][]int
	gamma    [][]float64
	logGamma [][]float64
}

// fillGammaTables fills the estimator's hp and γ tables for the state
// whose cached rules, in descending priority, are cached; logGamma waits
// for fillLogs. The result aliases estimator scratch and is valid until
// the next call.
func (e *uEstimator) fillGammaTables(cached []int) *gammaTables {
	ct := e.covers()
	nr := e.rs.Len()
	tab := &e.tab
	tab.hp = resize(tab.hp, nr)
	tab.gamma = resize(tab.gamma, nr)
	for j := 0; j < nr; j++ {
		hp := tab.hp[j][:0]
		for slot, cj := range cached {
			if cj != j && e.rs.HigherPriority(cj, j) {
				hp = append(hp, slot)
			}
		}
		tab.hp[j] = hp
		g := resize(tab.gamma[j], 1<<uint(len(hp)))
		for mask := range g {
			var excl uint64
			for b, slot := range hp {
				if mask&(1<<uint(b)) != 0 {
					excl |= 1 << uint(cached[slot])
				}
			}
			g[mask], _ = ct.gamma(j, excl, e.sr)
		}
		tab.gamma[j] = g
	}
	return tab
}

// fillLogs sets logGamma from gamma: log γ where γ > 0, else 0.
func (t *gammaTables) fillLogs() {
	t.logGamma = resize(t.logGamma, len(t.gamma))
	for j, g := range t.gamma {
		lg := resize(t.logGamma[j], len(g))
		for mask, v := range g {
			lg[mask] = 0
			if v > 0 {
				lg[mask] = math.Log(v)
			}
		}
		t.logGamma[j] = lg
	}
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

// reset prepares a for the state whose cached rules, in descending
// priority, are cached with timeouts touts, reusing a's storage.
func (a *uAccumulator) reset(cached, touts []int, e *uEstimator) {
	a.z = 0
	a.evictNum = resize(a.evictNum, len(cached))
	a.timeoutNum = resize(a.timeoutNum, len(cached))
	clear(a.evictNum)
	clear(a.timeoutNum)
	a.cached, a.touts, a.est = cached, touts, e
	var inCache uint32
	for _, j := range cached {
		inCache |= 1 << uint(j)
	}
	a.uncached = a.uncached[:0]
	for j := 0; j < e.rs.Len(); j++ {
		if inCache&(1<<uint(j)) == 0 {
			a.uncached = append(a.uncached, j)
		}
	}
}

// accumulate folds one assignment with probability p into the sums.
func (a *uAccumulator) accumulate(u []int, p float64) {
	minRem := math.MaxInt32
	for i, t := range a.touts {
		minRem = min(minRem, t-u[i])
	}
	a.accumulateAt(u, p, minRem)
}

// accumulateAt is accumulate for a caller that already knows the
// assignment's minimum remaining time minRem = min_i(t_i − u(i)).
func (a *uAccumulator) accumulateAt(u []int, p float64, minRem int) {
	a.z += p
	for i, t := range a.touts {
		if u[i] == t {
			a.timeoutNum[i] += p
		}
		if t-u[i] == minRem {
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
// choosing the |C|<n or |C|=n form of the uncached-rule horizon. Every
// rule's Σ_k γ range term is folded in a single sweep over the segments
// between sorted assignment values, within which each exclusion mask is
// constant, using the tables prepSweep builds for the state:
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
	ruleT  []int   // per rule ID: timeout in steps
	leaves int     // leaves visited by the latest enumerateFast

	// Last-slot kernel (last), rebuilt per prefix: the leaves' log P(u)
	// (exponentiated in place) and final-slot values, and one leaf-ready
	// rule's segment tables (subLeafRanges).
	leafP                  []float64
	leafV                  []int
	segStart               []int
	segSet, segClr, segRun []float64

	// Full-table tail sums (addLeafTails) by uncached rule q, side of
	// the final-slot window (below 2q, above 2q+1) and slack: entry
	// (2q+side)·tailStride + slack holds a sum valid while its tailStamp
	// equals stamp[tailDep[q]+1]. stamp[0] identifies the state and
	// stamp[d+1] slot d's current value. Ids start at 1 and are never
	// reused, so no table needs clearing.
	tailVal    []float64
	tailStamp  []uint64
	tailStride int
	tailDep    []int  // per q: deepest hp slot other than the final one, or −1
	tailLast   []bool // per q: the final slot is among the rule's hp
	stamp      []uint64
	stamps     uint64 // last id handed out

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

// enumerateFast sums P(u) over every injective assignment u of the cached
// slots (cached in descending priority) exactly. It requires at least one
// cached slot.
//
// A depth-first walk fixes the slots one at a time and carries log P(u)
// and the minimum slack min_i(t_i − u(i)) down the recursion:
//
//   - the cached rule at slot i contributes log γ − γ − Σ_{k<u(i)} γ(k),
//     all of which depend only on u(0..i) because its higher-priority
//     cached rules are a prefix of the slot order; the prefix sum and the
//     exclusion mask advance in O(1) amortized per candidate value;
//   - an uncached rule contributes −Σ_{k≤t_j} γ(k) as soon as its last
//     higher-priority cached slot is assigned; under a full table its
//     horizon shrinks by the leaf's minimum slack, which adds back the
//     tail Σ_{t_j−slack<k≤t_j} γ(k).
//
// The walk stops one slot early: with slots 0..m−2 fixed, the last-slot
// kernel (last) evaluates every value of the final slot as a leaf, from
// per-prefix tables instead of a fresh segment walk per leaf. It is
// bit-identical to evaluating each leaf on its own: every floating-point
// operation keeps its operands and its order, so z, evictNum and
// timeoutNum come out the same to the last bit (usum_ref_test.go holds the
// per-leaf walk as the oracle). The leaf count lands in scr.leaves.
func (e *uEstimator) enumerateFast(cached, touts []int, tab *gammaTables, acc *uAccumulator) {
	m := len(cached)
	maxT := 0
	for _, t := range touts {
		if t > maxT {
			maxT = t
		}
	}
	s := &e.scr
	s.u = resize(s.u, m)
	s.used = resize(s.used, maxT+2)
	clear(s.used)
	s.ready = resize(s.ready, m+1)
	for d := range s.ready {
		s.ready[d] = s.ready[d][:0]
	}
	s.dropAt = resize(s.dropAt, m)
	for d := range s.dropAt {
		s.dropAt[d] = resize(s.dropAt[d], maxT+2)
	}
	s.ruleT = s.ruleT[:0]
	for j := 0; j < e.rs.Len(); j++ {
		s.ruleT = append(s.ruleT, e.rs.Rule(j).Timeout)
	}
	s.leafP = resize(s.leafP, maxT)
	s.leafV = resize(s.leafV, maxT)
	s.leaves = 0
	// A tail's slack lies in [1, maxT).
	s.tailStride = maxT
	s.tailVal = resize(s.tailVal, 2*len(acc.uncached)*maxT)
	s.tailStamp = resize(s.tailStamp, 2*len(acc.uncached)*maxT)
	s.tailDep, s.tailLast = s.tailDep[:0], s.tailLast[:0]
	s.stamp = resize(s.stamp, m+1)
	s.stamps++
	s.stamp[0] = s.stamps
	// Group uncached rules by the depth at which all their
	// higher-priority cached slots are assigned.
	for _, j := range acc.uncached {
		hp := tab.hp[j]
		d := 0
		if len(hp) > 0 {
			d = hp[len(hp)-1] + 1 // hp ascends
		}
		s.ready[d] = append(s.ready[d], j)
		last := d == m
		if last {
			hp = hp[:len(hp)-1]
		}
		dep := -1
		if len(hp) > 0 {
			dep = hp[len(hp)-1]
		}
		s.tailDep = append(s.tailDep, dep)
		s.tailLast = append(s.tailLast, last)
	}
	full := m >= e.capacity
	e.dfs(0, 0, math.MaxInt32, cached, touts, tab, acc, full)
}

// dfs assigns slot (every slot but the last) and recurses; logp is log
// P(u) over the slots fixed so far and minRem their minimum slack.
func (e *uEstimator) dfs(slot int, logp float64, minRem int, cached, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.scr
	// Fold in the uncached rules whose dependencies are now assigned,
	// over their full (table-not-full) horizon.
	for _, j := range s.ready[slot] {
		logp -= tab.sumGammaRange(j, s.ruleT[j], s.u)
	}
	if slot == len(cached)-1 {
		e.last(logp, minRem, cached, touts, tab, acc, full)
		return
	}
	js := cached[slot]
	t := touts[slot]
	drop, mask := e.dropMasks(slot, t, tab.hp[js])
	sumPrefix := 0.0 // Σ_{k=1..v-1} γ(js, k)
	gamma, logGamma := tab.gamma[js], tab.logGamma[js]
	for v := 1; v <= t; v++ {
		mask &^= drop[v]
		g := gamma[mask]
		if !s.used[v] && g > 0 {
			s.u[slot] = v
			s.used[v] = true
			s.stamps++
			s.stamp[slot+1] = s.stamps
			e.dfs(slot+1, logp+logGamma[mask]-g-sumPrefix, min(minRem, t-v), cached, touts, tab, acc, full)
			s.used[v] = false
		}
		sumPrefix += g
	}
}

// dropMasks prepares the exclusion-mask walk of the rule at slot, whose
// higher-priority cached slots are hp: it returns the mask with every hp
// bit set and drop, where drop[v] holds the hp bits whose assigned u
// equals v — a bit leaves the mask when the step offset reaches it.
func (e *uEstimator) dropMasks(slot, t int, hp []int) (drop []int, mask int) {
	drop = e.scr.dropAt[slot]
	clear(drop[:t+1])
	for b, sl := range hp {
		mask |= 1 << uint(b)
		if ub := e.scr.u[sl]; ub <= t {
			drop[ub] |= 1 << uint(b)
		}
	}
	return drop, mask
}

// last is the last-slot kernel. With slots 0..m−2 fixed (log-probability
// logp, minimum slack minRem), it walks every value v of the final slot
// and treats each as a leaf, in passes over the prefix's leaves:
//
//  1. collect each leaf's value and its log P(u) over the cached slots;
//  2. subtract the range sums of the uncached rules that become ready at
//     the leaf (subLeafRanges), rule by rule;
//  3. under a full table, add back each uncached rule's tail for the
//     leaf's slack (addLeafTails), rule by rule;
//  4. exponentiate in one tight loop, so the independent math.Exp calls
//     overlap;
//  5. fold the leaves into acc in value order with their known slack.
//
// Passes 2 and 3 only swap the loop order of the per-leaf evaluation:
// every leaf still takes the same additions in the same order.
func (e *uEstimator) last(logp float64, minRem int, cached, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.scr
	slot := len(cached) - 1
	js := cached[slot]
	t := touts[slot]
	drop, mask := e.dropMasks(slot, t, tab.hp[js])
	leafP, leafV := s.leafP[:0], s.leafV[:0]
	sumPrefix := 0.0
	gamma, logGamma := tab.gamma[js], tab.logGamma[js]
	for v := 1; v <= t; v++ {
		mask &^= drop[v]
		g := gamma[mask]
		if !s.used[v] && g > 0 {
			leafP = append(leafP, logp+logGamma[mask]-g-sumPrefix)
			leafV = append(leafV, v)
		}
		sumPrefix += g
	}
	s.leafP, s.leafV = leafP, leafV
	e.subLeafRanges(slot+1, tab)
	if full && minRem > 0 {
		for q, j := range acc.uncached {
			e.addLeafTails(q, j, slot, t, minRem, tab)
		}
	}
	for i, lp := range leafP {
		leafP[i] = math.Exp(lp)
	}
	for i, p := range leafP {
		if p <= 0 {
			continue
		}
		v := leafV[i]
		s.u[slot] = v
		acc.accumulateAt(s.u, p, min(minRem, t-v))
	}
	s.leaves += len(leafP)
}

// subLeafRanges subtracts from every leaf's log P(u) the range sums
// Σ_{k=1..t_j} γ(j, k) of the uncached rules ready at the leaf
// (s.ready[depth]), bit-identical to sumGammaRange with the final slot at
// the leaf's value. Such a rule's last higher-priority slot is the final
// slot, so its other hp slots are fixed for the prefix: their u values in
// (1, t_j] cut [1, t_j] into segments c_0 = 1 < c_1 < … < t_j+1 with
// constant exclusion masks. Tabulated once per rule — each segment's γ
// with the final slot's bit set (segSet) and clear (segClr), and the
// running sum with the bit set before it (segRun) — a leaf with value v
// costs the running sum up to v's segment, the split segment [c, v) with
// the bit set, then [v, next) and every later segment with it clear: the
// same additions sumGammaSpan makes, in its order.
func (e *uEstimator) subLeafRanges(depth int, tab *gammaTables) {
	s := &e.scr
	for _, j := range s.ready[depth] {
		hp := tab.hp[j]
		fixed := hp[:len(hp)-1] // hp ascends, so the final slot is last
		bit := 1 << uint(len(fixed))
		tj := s.ruleT[j]
		c := append(s.segStart[:0], 1)
		for _, sl := range fixed {
			if x := s.u[sl]; x > 1 && x <= tj {
				c = append(c, x)
				for p := len(c) - 1; c[p] < c[p-1]; p-- {
					c[p], c[p-1] = c[p-1], c[p]
				}
			}
		}
		c = append(c, tj+1)
		n := len(c) - 1 // segments
		set, clr, run := resize(s.segSet, n), resize(s.segClr, n), resize(s.segRun, n+1)
		s.segStart, s.segSet, s.segClr, s.segRun = c, set, clr, run
		g := tab.gamma[j]
		sum := 0.0
		for l := 0; l < n; l++ {
			mask := 0
			for b, sl := range fixed {
				if s.u[sl] > c[l] {
					mask |= 1 << uint(b)
				}
			}
			set[l], clr[l], run[l] = g[mask|bit], g[mask], sum
			sum += float64(c[l+1]-c[l]) * set[l]
		}
		run[n] = sum // v > t_j: the bit is set throughout
		l := 0
		leafP := s.leafP
		for i, v := range s.leafV {
			if v > tj {
				leafP[i] -= run[n]
				continue
			}
			for c[l+1] < v {
				l++
			}
			r := run[l]
			if v > c[l] {
				r += float64(v-c[l]) * set[l]
			}
			r += float64(c[l+1]-v) * clr[l]
			for k := l + 1; k < n; k++ {
				r += float64(c[k+1]-c[k]) * clr[k]
			}
			leafP[i] -= r
		}
	}
}

// addLeafTails adds uncached rule j's full-table tail Σ_{t_j−ms<k≤t_j}
// γ(j, k) to every leaf with positive slack ms = min(minRem, t−v); q is
// j's index in the uncached list and slot the final slot, whose bound is
// t. The sum depends on v only when the final slot is one of j's
// higher-priority slots and v falls inside the window (max(t_j−ms, 0)+1,
// t_j]; then it is computed directly. Below the window the slot's bit is
// clear at every step of it, above it set, so those sums — and every sum
// of a rule that ignores the final slot — depend only on the slack and on
// the rule's other slots. They are cached by slack until one of those
// slots changes (see tailStamp), which spans many prefixes when the
// rule's slots sit high in the priority order. Cached or not, the value
// is sumGammaSpan's.
func (e *uEstimator) addLeafTails(q, j, slot, t, minRem int, tab *gammaTables) {
	s := &e.scr
	u, leafP, tailStamp, tailVal := s.u, s.leafP, s.tailStamp, s.tailVal
	tj, dependsOnV := s.ruleT[j], s.tailLast[q]
	stamp := s.stamp[s.tailDep[q]+1]
	below := 2 * q * s.tailStride
	above := below + s.tailStride
	for i, v := range s.leafV {
		ms := min(minRem, t-v)
		if ms <= 0 {
			break // v ascends, so the slack only falls
		}
		k := below + ms
		if dependsOnV {
			switch {
			case v > tj:
				k = above + ms
			case v > max(tj-ms, 0)+1:
				u[slot] = v
				leafP[i] += tab.sumGammaSpan(j, tj-ms, tj, u)
				continue
			}
		}
		if tailStamp[k] != stamp {
			u[slot] = v
			tailStamp[k], tailVal[k] = stamp, tab.sumGammaSpan(j, tj-ms, tj, u)
		}
		leafP[i] += tailVal[k]
	}
}

// resize returns b with length n, reallocating only when its capacity is
// short. Callers overwrite what they read: the contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
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
// (up to hash collision) to produce identical estimates. Every rule's γ
// table is hashed, and the target's highest-priority covering rule
// carries λ_f̂ in every state, so the M and M₀ chains of a target with a
// nonzero rate share no key: the memo hits only when an identical model
// is rebuilt.
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
