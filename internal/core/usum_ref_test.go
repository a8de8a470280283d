package core

import "math"

// This file keeps the per-assignment exact enumeration that the time-step
// sweep replaced. It is the sweep's oracle (usum_test.go): the walk
// recurses over the cached slots, evaluates every injective assignment u
// on its own, with a fresh sumGammaSpan call for every range and tail sum
// and a recomputed minimum slack, and folds P(u) into the sums.

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

// sumGammaRange returns Σ_{k=1..kmax} γ_{ℓ,u}(j, k).
func (t *gammaTables) sumGammaRange(j, kmax int, u []int) float64 {
	return t.sumGammaSpan(j, 0, kmax, u)
}

// sumGammaSpan returns Σ_{k=lo+1..hi} γ_{ℓ,u}(j, k), the tail form needed
// by the full-table horizon correction. The mask {j' : u(j') > k} only
// changes at the assigned u values, so the sum is evaluated segment-wise:
// between consecutive breakpoints γ is constant.
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

// newUAccumulator returns a fresh accumulator for one state, so a test can
// hold several states' sums at once.
func newUAccumulator(cached, touts []int, e *uEstimator) *uAccumulator {
	acc := &uAccumulator{}
	acc.reset(cached, touts, e.rs.Len())
	return acc
}

// refWalk is the state of one reference enumeration.
type refWalk struct {
	e      *uEstimator
	tab    *gammaTables
	acc    *uAccumulator
	full   bool
	u      []int
	used   []bool
	ready  [][]int // ready[d]: uncached rules computable once slots < d are assigned
	leaves int
}

// enumerateRef is the reference exact enumeration: it folds every
// injective assignment of the state's cached slots (cached in descending
// priority, with timeouts touts) into acc and returns how many it
// visited. Unlike the sweep, it fills evictNum under a non-full table
// too.
func (e *uEstimator) enumerateRef(cached, touts []int, tab *gammaTables, acc *uAccumulator) int {
	m := len(cached)
	maxT := 0
	for _, t := range touts {
		maxT = max(maxT, t)
	}
	w := &refWalk{
		e: e, tab: tab, acc: acc, full: m >= e.capacity,
		u: make([]int, m), used: make([]bool, maxT+2), ready: make([][]int, m+1),
	}
	for _, j := range acc.uncached {
		d := 0
		for _, slot := range tab.hp[j] {
			d = max(d, slot+1)
		}
		w.ready[d] = append(w.ready[d], j)
	}
	w.dfs(0, 0)
	return w.leaves
}

// dfs assigns slot and recurses; logp is log P(u) over the slots fixed so
// far.
func (w *refWalk) dfs(slot int, logp float64) {
	e, tab := w.e, w.tab
	for _, j := range w.ready[slot] {
		logp -= tab.sumGammaRange(j, e.rs.Rule(j).Timeout, w.u)
	}
	if slot == len(w.u) {
		w.leaf(logp)
		return
	}
	js := w.acc.cached[slot]
	sumPrefix := 0.0 // Σ_{k=1..v-1} γ(js, k)
	for v := 1; v <= w.acc.touts[slot]; v++ {
		w.u[slot] = v // γ(js, v) reads only higher-priority slots
		g := tab.gammaAt(js, v, w.u)
		if !w.used[v] && g > 0 {
			w.used[v] = true
			w.dfs(slot+1, logp+math.Log(g)-g-sumPrefix)
			w.used[v] = false
		}
		sumPrefix += g
	}
}

// leaf applies the full-table horizon correction and accumulates.
func (w *refWalk) leaf(logp float64) {
	u, acc := w.u, w.acc
	w.leaves++
	minSlack := math.MaxInt32
	for i := range u {
		minSlack = min(minSlack, acc.touts[i]-u[i])
	}
	if w.full && minSlack > 0 {
		for _, j := range acc.uncached {
			t := w.e.rs.Rule(j).Timeout
			logp += w.tab.sumGammaSpan(j, t-minSlack, t, u)
		}
	}
	p := math.Exp(logp)
	if p <= 0 {
		return
	}
	acc.z += p
	for i := range u {
		if u[i] == acc.touts[i] {
			acc.timeoutNum[i] += p
		}
		if acc.touts[i]-u[i] == minSlack {
			// Condition (4) with ties counted for every minimizer.
			acc.evictNum[i] += p
		}
	}
}
