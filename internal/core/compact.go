package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
)

// Model is the interface probe selection needs from a switch model.
// CompactModel implements it, and so does the exact §IV-A BasicModel
// that this package's tests keep as an oracle. Every kernel works on
// caller-owned distributions: a caller that wants to keep its input
// clones it first, so each operation exists exactly once.
type Model interface {
	// NumStates returns the model's state-space size.
	NumStates() int
	// InitialDist returns the distribution for an initially empty cache.
	InitialDist() markov.Dist
	// EvolveInPlace advances d the given number of Δ-steps (Eqn 8),
	// overwriting it.
	EvolveInPlace(d markov.Dist, steps int)
	// HitProbability returns the mass of states in which a probe of f
	// would hit (some cached rule covers f).
	HitProbability(d markov.Dist, f flows.ID) float64
	// SplitByHitInto partitions d's mass into the states where probing f
	// hits and the states where it misses. The halves are unnormalized;
	// hit and miss are fully overwritten and must not alias d.
	SplitByHitInto(d markov.Dist, f flows.ID, hit, miss markov.Dist)
	// ApplyProbeInto writes into dst the distribution d transformed by
	// the cache side effect of a probe of f with the given outcome: a
	// miss installs the covering rule (evicting if full); a hit
	// refreshes the matched rule. dst is fully overwritten and must not
	// alias d.
	ApplyProbeInto(dst, d markov.Dist, f flows.ID, hit bool)
	// ModelConfig returns the model's configuration.
	ModelConfig() Config
	// StateLabel returns the label recordings give state i.
	StateLabel(i int) int
}

var _ Model = (*CompactModel)(nil)

// CompactModel is the approximate Markov chain of §IV-B: a state is the
// subset of rules presently cached (at most the cache capacity), and
// eviction/timeout transition probabilities are estimated from the
// most-recent-match sums implemented in usum.go. The chain is built over
// its reachable class only: the subsets of the installable rules (see
// enumerateStates).
type CompactModel struct {
	cfg         Config
	sr          []float64
	installable uint64      // rules that are some flow's highest-priority cover
	states      []uint64    // rule bitmasks, index-aligned with the matrix (see index)
	sizeEnd     []int       // sizeEnd[k]: one past the last state caching k rules
	cover       *coverTable // rule coverage, shared read-only with the build's estimators
	matrix      *markov.Sparse
	frozen      *markov.CSR      // immutable CSR snapshot driving EvolveInPlace
	wsPool      sync.Pool        // *markov.Workspace, per-goroutine evolve scratch
	est         []StateEstimates // per-state §IV-B estimates (zero for the empty state); may be a memo's
	builds      *Builds          // the context the model was built in; nil for none
}

// MaxCompactRules is the largest rule set a compact model accepts: its
// states are subsets of the rules, up to 2^24 of them at this bound.
const MaxCompactRules = 24

// NewCompactModel enumerates the reachable subset states and builds the
// transition matrix, fanning the per-state u-sum estimation across
// GOMAXPROCS workers. The build reports to b, and the model keeps b for its later
// evolutions and searches. When b has a memo, the model's estimates are
// looked up in it once, and recorded to it on a miss; otherwise every
// state is evaluated. The model is the same either way.
func NewCompactModel(cfg Config, b *Builds) (*CompactModel, error) {
	return newCompactModelWorkers(cfg, b, 0)
}

// newCompactModelWorkers is NewCompactModel with an explicit build
// worker count (≤ 0 selects GOMAXPROCS). Per-state rows are computed on
// the pool and assembled in state order, so the resulting model is
// bit-identical regardless of the worker count: the only cross-state
// coupling is the context's u-sum memo, whose entries are pure functions
// of the model's inputs.
func newCompactModelWorkers(cfg Config, b *Builds, workers int) (*CompactModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nr := cfg.Rules.Len()
	if nr > MaxCompactRules {
		return nil, fmt.Errorf("core: compact model supports ≤ %d rules, got %d", MaxCompactRules, nr)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	m := &CompactModel{cfg: cfg, sr: cfg.stepRates(), cover: newCoverTable(cfg.Rules, len(cfg.Rates)), builds: b}
	m.installable = m.cover.installableRules()
	m.enumerateStates()
	var key usumInputs
	var h uint64
	memoized := b.memoized()
	if memoized {
		key = usumInputsOf(m)
		h = key.hash()
		m.est = b.lookup(h, &key)
	}
	fresh := m.est == nil
	if fresh {
		m.est = m.newEstimates()
	}
	if err := m.buildMatrix(workers, fresh); err != nil {
		return nil, err
	}
	if memoized && fresh {
		b.memo.put(h, key, m.est)
	}
	m.frozen = m.matrix.Freeze()
	n := len(m.states)
	m.wsPool.New = func() any { return markov.NewWorkspace(n) }
	b.obsBuild(float64(time.Since(start).Nanoseconds())/1e6, workers)
	return m, nil
}

// MemBytes estimates the model's resident heap footprint: state masks,
// the cover table, per-state estimates, and both matrix forms — the
// builder by the capacity its rows hold, not only their entries. It
// counts slices, not allocator or object headers, so treat the figure as
// a model store's byte-budget accounting unit, not exact process RSS.
func (m *CompactModel) MemBytes() int64 {
	b := int64(len(m.states)+len(m.sizeEnd)+len(m.sr))*8 + m.cover.memBytes() + estimatesBytes(m.est)
	if m.frozen != nil {
		b += m.frozen.MemBytes()
	}
	if m.matrix != nil {
		b += m.matrix.MemBytes()
	}
	return b
}

// CompactStateCount evaluates the §IV-B state count
// Σ_{n'=0..n} C(|Rules|, n'), including the empty state. It bounds a
// compact model's NumStates, which counts only the subsets of the
// installable rules.
func CompactStateCount(numRules, capacity int) int {
	if capacity > numRules {
		capacity = numRules
	}
	total := 0
	c := 1 // C(numRules, 0)
	for k := 0; k <= capacity; k++ {
		total += c
		c = c * (numRules - k) / (k + 1)
	}
	return total
}

// enumerateStates lists the states in index order: the subsets of the
// installable rules of at most the capacity, by size, and within a size
// in lexicographic order of their ascending rule IDs, so the empty state
// is index 0.
//
// These are exactly the states the chain can reach from the empty cache.
// The switch only ever installs the highest-priority rule covering an
// arriving or probed flow, and the chain's rows agree: an uncached rule's
// arrival weight is nonzero only when the rule has a relevant flow, a
// flow that no cached and no higher-priority rule covers, which makes
// the rule that flow's highest-priority cover; timeouts and evictions
// only remove rules. So a retained state's row has the entries, the
// normalization and the estimates (from the same inputs: every rule,
// uncached ones included) of the full §IV-B chain over all Σ C(|Rules|, k)
// subsets, every entry points at a retained state, and the dropped
// states hold exactly +0 in every distribution reached from the empty
// cache. The retained states keep their relative order, so the gather of
// Eqn 8, MassWhere, SplitByHitInto, ApplyProbeInto, Sum and the TopStates
// tie-break visit them in the full chain's order and skip only +0 terms:
// every output keeps its bits (TestReducedModelMatchesFullChain).
func (m *CompactModel) enumerateStates() {
	nr := m.cfg.Rules.Len()
	ni := bits.OnesCount64(m.installable)
	cap := min(m.cfg.CacheSize, ni)
	m.states = make([]uint64, 0, CompactStateCount(ni, cap))
	m.sizeEnd = make([]int, cap+1)
	var rec func(start int, mask uint64, size, want int)
	rec = func(start int, mask uint64, size, want int) {
		if size == want {
			m.states = append(m.states, mask)
			return
		}
		for j := start; j < nr; j++ {
			if m.installable&(1<<uint(j)) != 0 {
				rec(j+1, mask|1<<uint(j), size+1, want)
			}
		}
	}
	for want := 0; want <= cap; want++ {
		rec(0, 0, 0, want)
		m.sizeEnd[want] = len(m.states)
	}
}

// binomial[n][k] is C(n, k) for n < MaxCompactRules, k ≤ MaxCompactRules.
var binomial = func() (c [MaxCompactRules][MaxCompactRules + 1]int) {
	for n := range c {
		c[n][0] = 1
		for k := 1; k <= n; k++ {
			c[n][k] = c[n-1][k-1] + c[n-1][k]
		}
	}
	return c
}()

// index returns the state index of mask, which must cache at most the
// capacity and only installable rules: enumerateStates' order, ranked
// with no lookup table. Each cached rule ranks by its position p among
// the |I| installable rules. Among the C(|I|, k) states caching k of
// them, the one at positions p_1 < … < p_k ranks C(|I|, k) − 1 −
// Σ_i C(|I| − 1 − p_i, k + 1 − i) in lexicographic order, and the
// states caching fewer rules precede them.
func (m *CompactModel) index(mask uint64) int {
	n := bits.OnesCount64(m.installable)
	k := bits.OnesCount64(mask)
	idx := m.sizeEnd[k] - 1
	for r := k; mask != 0; r-- {
		p := bits.OnesCount64(m.installable & (mask&-mask - 1))
		idx -= binomial[n-1-p][r]
		mask &= mask - 1
	}
	return idx
}

// StateLabel returns state i's canonical index: its index in the full
// §IV-B enumeration of every subset of at most the capacity of all the
// rules, in the same order. Recordings label states by it, so a label
// does not depend on which rules are installable.
func (m *CompactModel) StateLabel(i int) int {
	mask := m.states[i]
	n := m.cfg.Rules.Len()
	k := bits.OnesCount64(mask)
	idx := CompactStateCount(n, k) - 1
	for r := k; mask != 0; r-- {
		idx -= binomial[n-1-bits.TrailingZeros64(mask)][r]
		mask &= mask - 1
	}
	return idx
}

// newEstimates returns the model's estimate vector, every state's slots
// carved from one allocation: a timeout slot per cached rule, and as many
// eviction slots when the table is full. The empty state has none.
func (m *CompactModel) newEstimates() []StateEstimates {
	est := make([]StateEstimates, len(m.states))
	capacity := m.cfg.CacheSize
	total := 0
	for _, mask := range m.states {
		k := bits.OnesCount64(mask)
		total += k
		if k >= capacity {
			total += k
		}
	}
	buf := make([]float64, total)
	for i, mask := range m.states {
		k := bits.OnesCount64(mask)
		if k == 0 {
			continue
		}
		est[i].Timeout, buf = buf[:k:k], buf[k:]
		if k >= capacity {
			est[i].Evict, buf = buf[:k:k], buf[k:]
		}
	}
	return est
}

// estimatesBytes returns an estimate vector's exact slice footprint.
func estimatesBytes(est []StateEstimates) int64 {
	b := int64(len(est)) * int64(unsafe.Sizeof(StateEstimates{}))
	for i := range est {
		b += int64(len(est[i].Timeout)+len(est[i].Evict)) * 8
	}
	return b
}

// builtRow is the output of one state's independent row computation: its
// unnormalized entries lo..hi-1 of the building worker's slab.
type builtRow struct {
	slab   *rowSlab
	lo, hi int
}

// rowSlab collects the row entries of every state one build worker
// computes, so a row costs no allocation of its own. Rows address it by
// offset, which stays valid as the slices grow.
type rowSlab struct {
	tos []int
	ps  []float64
}

// buildRow computes state idx's unnormalized row entries, evaluating its
// estimates into m.est[idx] first when fresh (else they came from a
// memo). It touches only state idx's estimates, immutable model fields
// (states, sizeEnd, cfg, sr, cover) and the caller-owned estimator, whose
// scratch carries the state's rule IDs and event weights and whose slab
// receives the entries, so rows can be built concurrently.
func (m *CompactModel) buildRow(estimator *uEstimator, idx int, fresh bool) builtRow {
	mask := m.states[idx]
	estimator.ids = appendMaskIDs(estimator.ids[:0], mask)
	cachedIDs := estimator.ids
	w := &estimator.w
	computeEventWeights(estimator.covers(), m.sr, mask, w)

	// A row's only repeated destination is its own state (the null
	// stay and every hit arrival): each timeout, install and eviction
	// moves to a distinct state. So the self-loop sums at its first
	// nonzero position and every other entry is new, which lets the
	// assembly append rows unchecked. add drops zero entries and sums in
	// arrival order, so the row is bit-identical to one accumulated entry
	// by entry (the reference build in build_ref_test.go).
	slab := &estimator.slab
	row := builtRow{slab: slab, lo: len(slab.tos)}
	self := -1 // the self-loop's slab position, once it has one
	add := func(to int, p float64) {
		if p == 0 {
			return
		}
		if to == idx {
			if self >= 0 {
				slab.ps[self] += p
				return
			}
			self = len(slab.tos)
		}
		slab.tos = append(slab.tos, to)
		slab.ps = append(slab.ps, p)
	}
	est := &m.est[idx]
	if fresh && len(cachedIDs) > 0 {
		estimator.estimate(cachedIDs, est)
	}

	// Null event: per-rule timeouts plus the stay-put remainder.
	var timeoutTotal float64
	for _, t := range est.Timeout {
		timeoutTotal += t
	}
	if timeoutTotal > 1 {
		// Conditional probabilities can overshoot jointly; rescale so
		// the null event stays a probability split.
		for i, j := range cachedIDs {
			add(m.index(mask&^(1<<uint(j))), w.null*est.Timeout[i]/timeoutTotal)
		}
	} else {
		for i, j := range cachedIDs {
			add(m.index(mask&^(1<<uint(j))), w.null*est.Timeout[i])
		}
		add(idx, w.null*(1-timeoutTotal))
	}

	// Arrival events.
	for j, p := range w.arrival {
		if p <= 0 {
			continue
		}
		switch {
		case mask&(1<<uint(j)) != 0:
			add(idx, p) // hit: subset unchanged
		case len(cachedIDs) < m.cfg.CacheSize:
			add(m.index(mask|1<<uint(j)), p)
		default:
			for i, v := range cachedIDs {
				to := (mask | 1<<uint(j)) &^ (1 << uint(v))
				add(m.index(to), p*est.Evict[i])
			}
		}
	}
	row.hi = len(slab.tos)
	return row
}

// estimators recycles build estimators, scratch and all, across model
// builds, so a cold build does not regrow every table and enumeration
// buffer from empty. The scratch holds no results: every buffer is
// overwritten before it is read.
var estimators sync.Pool

// newEstimator returns a u-sum estimator over the model's rules, rates
// and cover table, with an empty row slab. Each build worker owns one
// until the build's rows are assembled. Every field is set on every Get,
// so a recycled estimator never carries another build's model.
func (m *CompactModel) newEstimator() *uEstimator {
	e, _ := estimators.Get().(*uEstimator)
	if e == nil {
		e = &uEstimator{}
	}
	e.rs, e.sr, e.capacity, e.cover, e.builds = m.cfg.Rules, m.sr, m.cfg.CacheSize, m.cover, m.builds
	e.slab.tos, e.slab.ps = e.slab.tos[:0], e.slab.ps[:0]
	return e
}

// buildMatrix computes every state's row — the u-sum estimation, run
// when fresh, is the §VI hot path — on a pool of workers, then assembles
// the sparse matrix serially in state order so the result is independent
// of scheduling. Each builder row is reserved at its entry count up
// front, all from one slab, so assembly never regrows a row.
func (m *CompactModel) buildMatrix(workers int, fresh bool) error {
	n := len(m.states)
	rows := make([]builtRow, n)
	if workers > n {
		workers = n
	}
	workers = max(workers, 1)
	pool := make([]*uEstimator, workers)
	for w := range pool {
		pool[w] = m.newEstimator()
	}
	if workers == 1 {
		for idx := range m.states {
			rows[idx] = m.buildRow(pool[0], idx, fresh)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, estimator := range pool {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					idx := int(next.Add(1)) - 1
					if idx >= n {
						return
					}
					rows[idx] = m.buildRow(estimator, idx, fresh)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic in-order assembly.
	rowCaps := make([]int, n)
	for idx, row := range rows {
		rowCaps[idx] = row.hi - row.lo
	}
	m.matrix = markov.NewSparseReserved(rowCaps)
	for idx, row := range rows {
		for k := row.lo; k < row.hi; k++ {
			m.matrix.Append(idx, row.slab.tos[k], row.slab.ps[k])
		}
	}
	for _, e := range pool {
		estimators.Put(e)
	}
	m.matrix.NormalizeRows()
	return m.matrix.CheckStochastic(1e-9)
}

// appendMaskIDs appends the rule IDs set in mask to dst, ascending.
func appendMaskIDs(dst []int, mask uint64) []int {
	for mask != 0 {
		b := bits.TrailingZeros64(mask)
		dst = append(dst, b)
		mask &^= 1 << uint(b)
	}
	return dst
}

// NumStates returns the state-space size: Σ C(|I|, k), k ≤ n, over the
// |I| installable rules, at most CompactStateCount(|Rules|, n).
func (m *CompactModel) NumStates() int { return len(m.states) }

// ModelConfig returns the model's configuration.
func (m *CompactModel) ModelConfig() Config { return m.cfg }

// InitialDist returns the point distribution on the empty cache.
func (m *CompactModel) InitialDist() markov.Dist {
	return markov.PointDist(len(m.states), 0)
}

// EvolveInPlace advances d in place by steps (Eqn 8), using a pooled
// workspace so repeated calls (probe sweeps, per-trial model pushes)
// allocate nothing. The frozen CSR kernel keeps the result bit-identical
// to the reference Sparse.Evolve. Safe for concurrent use; each call
// draws its own workspace.
func (m *CompactModel) EvolveInPlace(d markov.Dist, steps int) {
	var start time.Time
	instrumented := m.builds.evolveInstrumented()
	if instrumented {
		start = time.Now()
	}
	ws := m.wsPool.Get().(*markov.Workspace)
	m.frozen.EvolveInPlace(ws, d, steps)
	m.wsPool.Put(ws)
	if instrumented {
		m.builds.evolveNs.Observe(float64(time.Since(start).Nanoseconds()))
	}
}

// coverMask returns the bitmask of rules covering f (none for a flow
// outside the universe).
func (m *CompactModel) coverMask(f flows.ID) uint64 {
	if int(f) < 0 || int(f) >= len(m.cover.covers) {
		return 0
	}
	return m.cover.covers[f]
}

// HitProbability returns P(Q_f = 1) under d.
func (m *CompactModel) HitProbability(d markov.Dist, f flows.ID) float64 {
	cover := m.coverMask(f)
	return d.MassWhere(func(i int) bool { return m.states[i]&cover != 0 })
}

// SplitByHitInto partitions d by whether probing f hits, writing into
// caller-provided buffers, which are fully overwritten.
func (m *CompactModel) SplitByHitInto(d markov.Dist, f flows.ID, hit, miss markov.Dist) {
	cover := m.coverMask(f)
	clear(hit)
	clear(miss)
	for i, p := range d {
		if p == 0 {
			continue
		}
		if m.states[i]&cover != 0 {
			hit[i] = p
		} else {
			miss[i] = p
		}
	}
}

// ApplyProbeInto implements the §V-B state update for one probe, writing
// into dst, which is fully overwritten and must not alias d: a hit leaves
// the subset unchanged (it only refreshes a clock the compact model does
// not carry); a miss installs the highest-priority rule covering f,
// splitting mass across evictions when the table is full.
func (m *CompactModel) ApplyProbeInto(dst, d markov.Dist, f flows.ID, hit bool) {
	if hit {
		copy(dst, d)
		return
	}
	jStar, ok := m.cfg.Rules.HighestCovering(f)
	if !ok {
		copy(dst, d) // probe of an uncovered flow cannot install anything
		return
	}
	clear(dst)
	bit := uint64(1) << uint(jStar)
	for i, p := range d {
		if p == 0 {
			continue
		}
		mask := m.states[i]
		if mask&bit != 0 {
			dst[i] += p // already cached (possible when called on hit-mass)
			continue
		}
		if bits.OnesCount64(mask) < m.cfg.CacheSize {
			dst[m.index(mask|bit)] += p
			continue
		}
		evict := m.est[i].Evict
		for slot, rem := 0, mask; rem != 0; slot++ {
			v := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(v)
			to := (mask | bit) &^ (1 << uint(v))
			dst[m.index(to)] += p * evict[slot]
		}
	}
}
