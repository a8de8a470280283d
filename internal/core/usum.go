package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"flowrecon/internal/rules"
)

// StateEstimates are the §IV-B conditional probabilities for one compact
// state: which cached rule is evicted when a full table takes an install,
// and the probability each cached rule times out. Both are indexed by
// slot: slot i is the state's i-th cached rule in ascending rule-ID order.
//
// Estimates may be shared between models via a u-sum memo (see
// usumMemo); treat the slices as immutable once the build that filled
// them returns.
type StateEstimates struct {
	// Evict[i] is P(slot i's rule has the smallest remaining time |
	// cached), Eqn (5)/Eqn (3), normalized over the cached rules. Only a
	// full table evicts, so Evict is nil for a state with room.
	Evict []float64
	// Timeout[i] is P(slot i's rule should time out | cached), Eqn
	// (7)/Eqn (3).
	Timeout []float64
	// Feasible is false when no injective most-recent-match assignment u
	// exists (or all have zero probability); Evict then falls back to
	// uniform and Timeout to zero.
	Feasible bool
}

// uEstimator evaluates the u-sums of §IV-B for states of one model
// configuration. It carries reusable scratch, so each concurrent build
// worker must own its own estimator (the underlying rule set and rates
// are shared read-only).
type uEstimator struct {
	rs       *rules.Set
	sr       []float64 // per-step flow rates λ_f·Δ
	capacity int
	cover    *coverTable // the model's, shared read-only; built on first use when unset
	builds   *Builds     // counts the states evaluated; nil for none

	// Scratch reused across calls. Nothing here outlives a call except
	// slab, which holds buildRow's entries until the build assembles them.
	tab   gammaTables
	order byPriority // the state's cached rules, descending priority
	touts []int      // their timeouts, slot-aligned with order.ids
	ids   []int      // buildRow's cached rule IDs, ascending
	w     eventWeights
	acc   uAccumulator
	sw    sweepScratch
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

// estimate fills out with the estimates of the compact state caching
// exactly cachedIDs. out.Timeout must hold one slot per cached rule, and
// out.Evict as many when the table is full and be nil otherwise; estimate
// overwrites every slot and sets out.Feasible. Everything else runs in
// estimator scratch, so a warm estimator allocates nothing.
func (e *uEstimator) estimate(cachedIDs []int, out *StateEstimates) {
	out.Feasible = true
	if len(cachedIDs) == 0 {
		return
	}
	cached, touts := e.orderCached(cachedIDs)
	if !injectiveFeasible(touts) {
		e.fallback(cached, out)
		return
	}
	e.evaluate(cached, touts, e.fillGammaTables(cached), out)
}

// evaluate fills out with a feasible state's estimates from its u-sums:
// cached holds the state's rules in descending priority, touts their
// timeouts and tab its γ tables. The state is marked infeasible when
// every assignment has zero probability.
func (e *uEstimator) evaluate(cached, touts []int, tab *gammaTables, out *StateEstimates) {
	m := len(cached)
	full := m >= e.capacity
	acc := &e.acc
	acc.reset(cached, touts, e.rs.Len())
	e.sweep(tab, acc, full)
	e.builds.obsUSum(e.sw.steps)

	if acc.z <= 0 {
		e.fallback(cached, out)
		return
	}
	mask := idMask(cached)
	for i, j := range cached {
		out.Timeout[slotOf(mask, j)] = clamp01(acc.timeoutNum[i] / acc.z)
	}
	if !full {
		return
	}
	var evictSum float64
	for i, j := range cached {
		s := slotOf(mask, j)
		out.Evict[s] = acc.evictNum[i] / acc.z
		evictSum += out.Evict[s]
	}
	if evictSum > 0 {
		for s := range out.Evict {
			out.Evict[s] /= evictSum
		}
	} else {
		for s := range out.Evict {
			out.Evict[s] = 1 / float64(m)
		}
	}
}

// idMask returns the bitmask of the rule IDs in ids.
func idMask(ids []int) uint64 {
	var mask uint64
	for _, j := range ids {
		mask |= 1 << uint(j)
	}
	return mask
}

// slotOf returns rule j's slot in the state mask: the number of cached
// rules with a lower ID.
func slotOf(mask uint64, j int) int {
	return bits.OnesCount64(mask & (1<<uint(j) - 1))
}

// orderCached copies cachedIDs into estimator scratch in descending
// priority, so that a rule's higher-priority cached rules precede it,
// and returns them with their timeouts. Both slices are valid until the
// next call.
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

// fallback marks the state infeasible and fills out with uniform
// eviction (when the table is full) and zero timeout probability.
func (e *uEstimator) fallback(cached []int, out *StateEstimates) {
	out.Feasible = false
	for s := range out.Timeout {
		if out.Evict != nil {
			out.Evict[s] = 1 / float64(len(cached))
		}
		out.Timeout[s] = 0
	}
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
// rules; gamma[j] is indexed by a bitmask over hp[j].
//
// The tables live in estimator scratch and are refilled per state by
// uEstimator.fillGammaTables from the cover-table kernel: γ(j, mask) is the
// sum of sr[f] over rule j's flows in ascending order, skipping any flow
// an excluded rule covers. Those are the additions flows.Set.SumRates
// makes over rule j's cover with the excluded covers subtracted, so every
// entry is bit-identical to the clone-and-subtract construction (kept in
// the tests as the oracle).
type gammaTables struct {
	hp    [][]int
	gamma [][]float64
}

// fillGammaTables fills the estimator's hp and γ tables for the state
// whose cached rules, in descending priority, are cached. The result
// aliases estimator scratch and is valid until the next call.
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

// uAccumulator holds one state's u-sums: Σ P(u) (Eqn 3), Σ P(u)·1[u(i)
// has the minimum remaining time] (Eqn 5, full tables only) and Σ
// P(u)·1[u(i)=t_i] (Eqn 7), slot-aligned with cached.
type uAccumulator struct {
	z          float64
	evictNum   []float64
	timeoutNum []float64

	cached   []int
	touts    []int
	uncached []int // rule IDs not cached, ascending
}

// reset prepares a for the state whose cached rules, in descending
// priority, are cached with timeouts touts, out of nr rules, reusing a's
// storage.
func (a *uAccumulator) reset(cached, touts []int, nr int) {
	a.z = 0
	a.evictNum = resize(a.evictNum, len(cached))
	a.timeoutNum = resize(a.timeoutNum, len(cached))
	clear(a.evictNum)
	clear(a.timeoutNum)
	a.cached, a.touts = cached, touts
	var inCache uint32
	for _, j := range cached {
		inCache |= 1 << uint(j)
	}
	a.uncached = a.uncached[:0]
	for j := 0; j < nr; j++ {
		if inCache&(1<<uint(j)) == 0 {
			a.uncached = append(a.uncached, j)
		}
	}
}

// sweepScratch holds the time-step sweep's per-state tables. Every table
// is indexed by a set A of cached slots (bit i for slot i), N = 2^m
// entries per row: A is the set of slots whose most-recent match lies
// further back than the current lookback step.
type sweepScratch struct {
	g     []float64 // one rule's γ(A)
	cr    []float64 // Σ_{i∈A} γ_i(A): the cached rules still unmatched
	pw    []float64 // [i][A] γ_i(A)·e^{−γ_i(A)} for i ∉ A: slot i matched at this step
	un    []float64 // Σ γ_j(A) over the uncached rules folded in so far
	byT   []int     // uncached rule IDs, descending timeout
	rows  []float64 // [row][A] e^{−cr[A] − Σ_{uncached j: t_j ≥ c} γ_j(A)}
	rowOf []int     // per step c: its row
	eb    []float64 // [i][A] row(t_i)[A]·bwd_{t_i}[A]: everything after slot i's pin
	bwd   []float64 // weight of every completion from A after step c
	fwd   []float64 // slack-0 forward weights (Eqn 7, and all of a non-full table)
	f0    []float64 // all-slack forward weights, no slot yet at its deadline
	f1    []float64 // all-slack forward weights, some slot at its deadline
	steps int       // sweep length K of the latest state
}

// sweep computes acc's u-sums exactly, in time steps instead of
// assignments. It requires at least one cached slot.
//
// P(u) factors over lookback steps k: at step k the set A_k = {i : u(i) >
// k} fixes every rule's rate γ(A_k), each cached slot still in A_k
// contributes e^{−γ}, the slot with u(i) = k (injectivity allows at most
// one) contributes γ·e^{−γ}, and every uncached rule whose horizon
// reaches k contributes e^{−γ}. A forward pass over k = 1…K, K = max t_i,
// carries the summed weight of every partial assignment per set A — 2^m
// states instead of Π t_i assignments — and u(i) ≤ t_i removes slot i from
// every A once k passes t_i.
//
// Under a full table the uncached horizons shrink to t_j − s for the
// assignment's minimum slack s = min_i(t_i − u(i)). Fixing s gives every
// slot the deadline t_i − s, which some slot meets exactly. Counted in
// c = k + s, every slack's recurrence is the same one — deadlines t_i,
// uncached rule j live while c ≤ t_j — started at c = s+1. So one
// forward pass seeded with A = all slots before each step c ≤ min t_i
// sums every slack at once; a flag in the state records that some slot
// met its deadline, and Z is the flagged weight at the end, with no
// subtraction. Eqn 5's numerator for slot i pins it to its deadline,
// c = t_i: the forward weight just before that step times the weight of
// every completion after it, from one backward pass. Eqn 7's numerator
// is the slack-0 pin u(i) = t_i, read from a forward pass seeded only at
// c = 1; a non-full table (horizon t_j, no eviction) needs only that
// pass.
//
// The exponential rows depend on c only through the set of live
// uncached rules, so one row per distinct uncached timeout serves every
// step and every slack. The sums agree with the per-assignment
// enumeration (usum_ref_test.go) to rounding: the same terms, summed in
// another order.
//
// Both passes walk only the live slot sets: the subsets of the slots
// whose deadline has not passed, a = ((a | ^live) + 1) & live ascending
// and a = (a − 1) & live descending. A set holding a slot past its
// deadline weighs exactly +0 from then on, so each term the walk skips
// would add +0 to a non-negative finite sum: every sum keeps its order
// and its bits, those of the passes that visit every set
// (sweep_ref_test.go).
func (e *uEstimator) sweep(tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.sw
	n := 1 << uint(len(acc.cached))
	maxT, minT := 0, math.MaxInt
	for _, t := range acc.touts {
		maxT, minT = max(maxT, t), min(minT, t)
	}
	s.steps = maxT
	s.fillMatchWeights(tab, acc.cached, n)
	tail := s.fillRows(e.rs, tab, acc.uncached, acc.touts, n, maxT)
	s.backward(acc.touts, n, maxT, tail)
	acc.z = s.forward(acc, n, maxT, minT, full) * tail
}

// fillMatchWeights fills pw with γ·e^{−γ} of each slot matched at a step
// and cr with the summed rate of the cached rules still unmatched.
func (s *sweepScratch) fillMatchWeights(tab *gammaTables, cached []int, n int) {
	s.cr = resize(s.cr, n)
	clear(s.cr)
	s.pw = resize(s.pw, len(cached)*n)
	for i, j := range cached {
		g := s.project(tab, j, n)
		pw := s.pw[i*n : (i+1)*n]
		for a := range g {
			if a&(1<<uint(i)) != 0 {
				s.cr[a] += g[a]
				pw[a] = 0
			} else {
				pw[a] = g[a] * math.Exp(-g[a])
			}
		}
	}
}

// fillRows fills the exponential rows, from the last step down: an
// uncached rule joins the live set at c = t_j. Steps past maxT see only
// A = ∅, where each rule still live contributes e^{−γ_j(∅)} per step;
// fillRows returns that tail factor.
//
// Step c reads its row only on the sets of the slots whose deadline is
// after c, and those sets shrink as c grows, so a row is read on no set
// beyond those of the lowest step it serves, the step above the next
// join. It is filled on those sets alone; its other entries keep whatever
// they held.
func (s *sweepScratch) fillRows(rs *rules.Set, tab *gammaTables, uncached, touts []int, n, maxT int) (tail float64) {
	s.byT = append(s.byT[:0], uncached...)
	for p := 1; p < len(s.byT); p++ {
		for q := p; q > 0 && rs.Rule(s.byT[q]).Timeout > rs.Rule(s.byT[q-1]).Timeout; q-- {
			s.byT[q], s.byT[q-1] = s.byT[q-1], s.byT[q]
		}
	}
	tailSum := 0.0
	for _, j := range s.byT {
		if t := rs.Rule(j).Timeout; t > maxT {
			tailSum += float64(t-maxT) * tab.gamma[j][0]
		}
	}
	s.un = resize(s.un, n)
	clear(s.un)
	s.rows = resize(s.rows, (len(s.byT)+1)*n)
	s.rowOf = resize(s.rowOf, maxT+1)
	rows, next := 0, 0
	for c := maxT; c >= 1; c-- {
		joined := false
		for ; next < len(s.byT) && rs.Rule(s.byT[next]).Timeout >= c; next++ {
			for a, g := range s.project(tab, s.byT[next], n) {
				s.un[a] += g
			}
			joined = true
		}
		if joined || rows == 0 {
			lowest := 1
			if next < len(s.byT) {
				lowest = rs.Rule(s.byT[next]).Timeout + 1
			}
			live := 0 // slots whose deadline is after the lowest step
			for i, t := range touts {
				if t > lowest {
					live |= 1 << uint(i)
				}
			}
			row := s.rows[rows*n : (rows+1)*n]
			for a := 0; ; a = ((a | ^live) + 1) & live {
				row[a] = math.Exp(-s.cr[a] - s.un[a])
				if a == live {
					break
				}
			}
			rows++
		}
		s.rowOf[c] = rows - 1
	}
	return math.Exp(-tailSum)
}

// backward fills bwd, from the last step down, with the weight of every
// completion from set A after step c, and keeps in eb, per slot, the
// weight of step t_i landing on A and of everything after it. Only the
// sets of live slots (t_i ≥ c) carry weight. The live set only grows as
// c falls, so a set it reaches still holds the zero it was cleared to.
func (s *sweepScratch) backward(touts []int, n, maxT int, tail float64) {
	s.bwd = resize(s.bwd, n)
	clear(s.bwd)
	s.bwd[0] = tail
	s.eb = resize(s.eb, len(touts)*n)
	bwd, pw, mask := s.bwd[:n], s.pw, n-1
	_ = bwd[mask] // mask < n, so no a&mask index below needs a bounds check
	live := 0     // slots whose deadline is after c
	for c := maxT; c >= 1; c-- {
		row := s.row(c, n)
		for a := 0; ; a = ((a | ^live) + 1) & live {
			bwd[a&mask] *= row[a&mask]
			if a == live {
				break
			}
		}
		for i, t := range touts {
			if t == c {
				copy(s.eb[i*n:(i+1)*n], bwd)
				live |= 1 << uint(i)
			}
		}
		// Descending, so a's subsets still hold step-c weights.
		for a := live; ; a = (a - 1) & live {
			v := bwd[a&mask]
			for rem := a; rem != 0; rem &= rem - 1 {
				i := bits.TrailingZeros(uint(rem))
				b := a &^ (1 << uint(i))
				v += pw[i*n+b] * bwd[b&mask]
			}
			bwd[a&mask] = v
			if a == 0 {
				break
			}
		}
	}
}

// forward runs the forward passes over steps 1…maxT, reading each slot's
// pinned numerators into acc just before its step, and returns the
// weight that reaches A = ∅: every slack's, flagged, under a full table;
// the slack-0 pass's otherwise. A non-full table runs only the slack-0
// pass.
func (s *sweepScratch) forward(acc *uAccumulator, n, maxT, minT int, full bool) float64 {
	touts := acc.touts
	all := n - 1
	s.fwd = resize(s.fwd, n)
	clear(s.fwd)
	s.fwd[all] = 1
	if full {
		s.f0 = resize(s.f0, n)
		s.f1 = resize(s.f1, n)
		clear(s.f0)
		clear(s.f1)
	}
	live := all // slots whose deadline is c or later
	for c := 1; c <= maxT; c++ {
		if full && c <= minT {
			s.f0[all]++ // slack c−1 starts here
		}
		ends := 0 // slots whose deadline is c
		for i, t := range touts {
			if t == c {
				acc.timeoutNum[i], acc.evictNum[i] = s.pin(i, n, live, full)
				ends |= 1 << uint(i)
			}
		}
		if full {
			s.stepAll(s.row(c, n), live, ends)
		} else {
			s.stepSlack0(s.row(c, n), live, ends)
		}
		live &^= ends
	}
	if full {
		return s.f1[0]
	}
	return s.fwd[0]
}

// stepSlack0 advances the slack-0 pass by one step c with row's
// exponentials. live holds the slots whose deadline is c or later, ends
// those whose deadline is c.
func (s *sweepScratch) stepSlack0(row []float64, live, ends int) {
	n, after := len(row), live&^ends
	mask := n - 1
	fwd, pw := s.fwd[:n], s.pw
	_ = fwd[mask] // mask < n, so no a&mask index below needs a bounds check
	// Ascending, so a's supersets still hold step c−1 weights.
	for a := 0; ; a = ((a | ^after) + 1) & after {
		v := fwd[a&mask]
		for rem := live &^ a; rem != 0; rem &= rem - 1 {
			i := bits.TrailingZeros(uint(rem))
			v += pw[i*n+a] * fwd[(a|1<<uint(i))&mask]
		}
		fwd[a&mask] = v * row[a&mask]
		if a == after {
			break
		}
	}
}

// stepAll advances the slack-0 and the all-slack passes by one step c,
// as stepSlack0 does. A slot whose deadline is c moves the all-slack
// weight it leaves into the flagged pass.
func (s *sweepScratch) stepAll(row []float64, live, ends int) {
	n, after := len(row), live&^ends
	mask := n - 1
	fwd, f0, f1, pw := s.fwd[:n], s.f0[:n], s.f1[:n], s.pw
	_ = fwd[mask] // mask < n, so no a&mask index below needs a bounds check
	// Ascending, so a's supersets still hold step c−1 weights.
	for a := 0; ; a = ((a | ^after) + 1) & after {
		v, v0, v1 := fwd[a&mask], f0[a&mask], f1[a&mask]
		for rem := live &^ a; rem != 0; rem &= rem - 1 {
			i := bits.TrailingZeros(uint(rem))
			b := (a | 1<<uint(i)) & mask
			w := pw[i*n+a]
			v += w * fwd[b]
			if ends&(1<<uint(i)) != 0 {
				v1 += w * (f0[b] + f1[b])
			} else {
				v0 += w * f0[b]
				v1 += w * f1[b]
			}
		}
		fwd[a&mask], f0[a&mask], f1[a&mask] = v*row[a&mask], v0*row[a&mask], v1*row[a&mask]
		if a == after {
			break
		}
	}
}

// pin returns slot i's numerators at step c = t_i, with the forward
// weights still those of step c−1: Eqn 7's from the slack-0 pass and,
// under a full table, Eqn 5's from the all-slack pass. live holds the
// slots whose deadline is c or later.
func (s *sweepScratch) pin(i, n, live int, full bool) (timeoutNum, evictNum float64) {
	bit, mask := 1<<uint(i), n-1
	pw, eb, fwd := s.pw[i*n:][:n], s.eb[i*n:][:n], s.fwd[:n]
	var f0, f1 []float64
	if full {
		f0, f1 = s.f0[:n], s.f1[:n]
	}
	others := live &^ bit
	for a := 0; ; a = ((a | ^others) + 1) & others {
		w := pw[a&mask] * eb[a&mask]
		b := (a | bit) & mask
		timeoutNum += w * fwd[b]
		if full {
			evictNum += w * (f0[b] + f1[b])
		}
		if a == others {
			break
		}
	}
	return timeoutNum, evictNum
}

// row returns the exponential row of step c.
func (s *sweepScratch) row(c, n int) []float64 {
	return s.rows[s.rowOf[c]*n:][:n]
}

// project fills s.g with rule j's γ over all n slot sets A and returns
// it: A's slots among j's higher-priority ones select the γ table entry.
func (s *sweepScratch) project(tab *gammaTables, j, n int) []float64 {
	s.g = resize(s.g, n)
	hp, gamma := tab.hp[j], tab.gamma[j]
	for a := range s.g {
		mask := 0
		for b, slot := range hp {
			mask |= (a >> uint(slot) & 1) << uint(b)
		}
		s.g[a] = gamma[mask]
	}
	return s.g
}

// resize returns b with length n, reallocating only when its capacity is
// short. Callers overwrite what they read: the contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// ---- u-sum memoization -------------------------------------------------

// usumInputs are every input a model's u-sum estimates depend on: the
// cache capacity, the per-step flow rates, each flow's covering rules,
// and each rule's outranking rules and timeout. A model's state order is
// a function of the capacity and its installable rules, which the covers
// and the outranking rules determine, so two models with equal inputs
// have equal estimate vectors, state for state and bit for bit.
// The slices alias the model's own, which are immutable once built.
type usumInputs struct {
	capacity int
	sr       []float64
	covers   []uint64 // per flow: its covering rules
	higher   []uint64 // per rule: the rules that outrank it
	touts    []int    // per rule: its timeout
}

// usumInputsOf returns m's u-sum inputs.
func usumInputsOf(m *CompactModel) usumInputs {
	touts := make([]int, m.cfg.Rules.Len())
	for j := range touts {
		touts[j] = m.cfg.Rules.Rule(j).Timeout
	}
	return usumInputs{capacity: m.cfg.CacheSize, sr: m.sr, covers: m.cover.covers, higher: m.cover.higher, touts: touts}
}

// hash returns a 64-bit FNV-1a hash of the inputs. A memo lookup compares
// the inputs in full, so a collision costs a miss, never a wrong model.
func (in *usumInputs) hash() uint64 {
	h := uint64(14695981039346656037)
	word := func(v uint64) { h = (h ^ v) * 1099511628211 }
	word(uint64(in.capacity))
	word(uint64(len(in.sr)))
	for _, r := range in.sr {
		word(math.Float64bits(r))
	}
	for _, c := range in.covers {
		word(c)
	}
	word(uint64(len(in.higher)))
	for j, hi := range in.higher {
		word(hi)
		word(uint64(in.touts[j]))
	}
	return h
}

// equal reports whether two models' inputs agree exactly, rates bit for
// bit.
func (in *usumInputs) equal(o *usumInputs) bool {
	return in.capacity == o.capacity &&
		slices.EqualFunc(in.sr, o.sr, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) &&
		slices.Equal(in.covers, o.covers) && slices.Equal(in.higher, o.higher) && slices.Equal(in.touts, o.touts)
}

// usumEntry is one memoized model: its inputs and its estimate vector,
// state for state.
type usumEntry struct {
	in  usumInputs
	est []StateEstimates
}

// usumMemo is a bounded memo of whole models' u-sum estimates, safe for
// concurrent builds. A build looks its model's inputs up once: a hit
// hands the build every state's estimates, so it evaluates no state and
// fills no γ table; a miss evaluates every state and records the vector.
// The memo holds at most 2¹⁵ states in total and on overflow resets
// wholesale: the working set of one model pair fits comfortably, so
// eviction sophistication buys nothing. A Builds context owns it.
type usumMemo struct {
	mu     sync.RWMutex
	m      map[uint64]*usumEntry
	states int // summed over the entries
}

const usumMemoMax = 1 << 15

func newUSumMemo() *usumMemo {
	return &usumMemo{m: make(map[uint64]*usumEntry)}
}

// get returns the estimate vector memoized under in (whose hash is h),
// or nil.
func (c *usumMemo) get(h uint64, in *usumInputs) []StateEstimates {
	c.mu.RLock()
	e := c.m[h]
	c.mu.RUnlock()
	if e != nil && e.in.equal(in) {
		return e.est
	}
	return nil
}

// put memoizes est under in (whose hash is h). A vector larger than the
// whole bound is not kept.
func (c *usumMemo) put(h uint64, in usumInputs, est []StateEstimates) {
	if len(est) > usumMemoMax {
		return
	}
	c.mu.Lock()
	if c.states+len(est) > usumMemoMax {
		c.m = make(map[uint64]*usumEntry)
		c.states = 0
	}
	if old := c.m[h]; old != nil {
		c.states -= len(old.est)
	}
	c.m[h] = &usumEntry{in: in, est: est}
	c.states += len(est)
	c.mu.Unlock()
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
