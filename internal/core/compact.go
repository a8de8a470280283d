package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
)

// Model is the interface probe selection needs from a switch model. Both
// BasicModel and CompactModel implement it. Every kernel works on
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
}

var (
	_ Model = (*CompactModel)(nil)
	_ Model = (*BasicModel)(nil)
)

// CompactModel is the approximate Markov chain of §IV-B: a state is the
// subset of rules presently cached (at most the cache capacity), and
// eviction/timeout transition probabilities are estimated from the
// most-recent-match sums implemented in usum.go.
type CompactModel struct {
	cfg    Config
	sr     []float64
	states []uint64       // rule bitmasks, index-aligned with the matrix
	index  map[uint64]int // mask → state index
	cover  *coverTable    // rule coverage, shared read-only with the build's estimators
	matrix *markov.Sparse
	frozen *markov.CSR      // immutable CSR snapshot driving EvolveInPlace
	wsPool sync.Pool        // *markov.Workspace, per-goroutine evolve scratch
	est    []StateEstimates // per-state §IV-B estimates (nil for the empty state)
	memo   *USumMemo        // the memo the model was built through; nil for none
}

// MaxCompactRules is the largest rule set a compact model accepts: its
// states are subsets of the rules, up to 2^24 of them at this bound.
const MaxCompactRules = 24

// NewCompactModel enumerates every subset state and builds the transition
// matrix, fanning the per-state u-sum estimation across GOMAXPROCS
// workers. States are looked up in and recorded to memo; a nil memo
// evaluates every state. The model is the same either way.
func NewCompactModel(cfg Config, memo *USumMemo) (*CompactModel, error) {
	return newCompactModelWorkers(cfg, memo, 0)
}

// newCompactModelWorkers is NewCompactModel with an explicit build
// worker count (≤ 0 selects GOMAXPROCS). Per-state rows are computed on
// the pool and assembled in state order, so the resulting model is
// bit-identical regardless of the worker count: the only cross-state
// coupling is the caller's u-sum memo, whose entries are pure functions
// of their keys.
func newCompactModelWorkers(cfg Config, memo *USumMemo, workers int) (*CompactModel, error) {
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
	m := &CompactModel{cfg: cfg, sr: cfg.stepRates(), cover: newCoverTable(cfg.Rules, len(cfg.Rates)), memo: memo}
	m.enumerateStates()
	if err := m.buildMatrix(workers); err != nil {
		return nil, err
	}
	m.frozen = m.matrix.Freeze()
	n := len(m.states)
	m.wsPool.New = func() any { return markov.NewWorkspace(n) }
	obsBuild(float64(time.Since(start).Nanoseconds())/1e6, workers)
	return m, nil
}

// MemBytes estimates the model's resident heap footprint: state masks,
// the mask index, the cover table, per-state estimates, and both matrix
// forms — the builder by the capacity its rows hold, not only their
// entries. Map overhead is approximated, so treat the figure as a model
// store's byte-budget accounting unit, not exact process RSS.
func (m *CompactModel) MemBytes() int64 {
	const mapEntry = 48 // rough per-entry bucket + key + value cost
	b := int64(len(m.states))*8 + int64(len(m.sr))*8 + m.cover.memBytes()
	b += int64(len(m.index)) * mapEntry
	for i := range m.est {
		b += int64(len(m.est[i].Evict)+len(m.est[i].Timeout))*mapEntry + 64
	}
	if m.frozen != nil {
		b += m.frozen.MemBytes()
	}
	if m.matrix != nil {
		b += m.matrix.MemBytes()
	}
	return b
}

// CompactStateCount evaluates the §IV-B state count
// Σ_{n'=0..n} C(|Rules|, n'), including the empty state.
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

func (m *CompactModel) enumerateStates() {
	nr := m.cfg.Rules.Len()
	cap := m.cfg.CacheSize
	if cap > nr {
		cap = nr
	}
	count := CompactStateCount(nr, cap)
	m.index = make(map[uint64]int, count)
	m.states = make([]uint64, 0, count)
	add := func(mask uint64) {
		m.index[mask] = len(m.states)
		m.states = append(m.states, mask)
	}
	// Enumerate subsets in increasing size so the empty state is index 0.
	var rec func(start int, mask uint64, size, want int)
	rec = func(start int, mask uint64, size, want int) {
		if size == want {
			add(mask)
			return
		}
		for j := start; j < nr; j++ {
			rec(j+1, mask|1<<uint(j), size+1, want)
		}
	}
	for want := 0; want <= cap; want++ {
		rec(0, 0, 0, want)
	}
}

// builtRow is the output of one state's independent row computation: its
// estimates, and its unnormalized entries lo..hi-1 of the building
// worker's slab.
type builtRow struct {
	est    StateEstimates
	hasEst bool
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

// buildRow computes state idx's estimates and unnormalized row entries.
// It touches only immutable model fields (states, index, cfg, sr, cover)
// plus the caller-owned estimator, whose scratch carries the state's rule
// IDs and event weights and whose slab receives the entries, so rows can
// be built concurrently.
func (m *CompactModel) buildRow(estimator *uEstimator, idx int) builtRow {
	mask := m.states[idx]
	estimator.ids = appendMaskIDs(estimator.ids[:0], mask)
	cachedIDs := estimator.ids
	w := &estimator.w
	computeEventWeights(estimator.covers(), m.sr, mask, w)

	slab := &estimator.slab
	row := builtRow{slab: slab, lo: len(slab.tos)}
	add := func(to int, p float64) {
		slab.tos = append(slab.tos, to)
		slab.ps = append(slab.ps, p)
	}
	est := row.est
	if len(cachedIDs) > 0 {
		est = estimator.estimate(cachedIDs)
		row.est = est
		row.hasEst = true
	}

	// Null event: per-rule timeouts plus the stay-put remainder.
	var timeoutTotal float64
	for _, j := range cachedIDs {
		timeoutTotal += est.Timeout[j]
	}
	if timeoutTotal > 1 {
		// Conditional probabilities can overshoot jointly; rescale so
		// the null event stays a probability split.
		for _, j := range cachedIDs {
			add(m.index[mask&^(1<<uint(j))], w.null*est.Timeout[j]/timeoutTotal)
		}
	} else {
		for _, j := range cachedIDs {
			add(m.index[mask&^(1<<uint(j))], w.null*est.Timeout[j])
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
			add(m.index[mask|1<<uint(j)], p)
		default:
			for _, v := range cachedIDs {
				to := (mask | 1<<uint(j)) &^ (1 << uint(v))
				add(m.index[to], p*est.Evict[v])
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

// newEstimator returns a u-sum estimator over the model's rules, rates,
// cover table and memo, with an empty row slab. Each build worker owns
// one until the build's rows are assembled. Every field is set on every
// Get, the memo included when nil, so a recycled estimator never carries
// another build's memo.
func (m *CompactModel) newEstimator() *uEstimator {
	e, _ := estimators.Get().(*uEstimator)
	if e == nil {
		e = &uEstimator{}
	}
	e.rs, e.sr, e.capacity, e.cover, e.memo = m.cfg.Rules, m.sr, m.cfg.CacheSize, m.cover, m.memo
	e.slab.tos, e.slab.ps = e.slab.tos[:0], e.slab.ps[:0]
	return e
}

// buildMatrix computes every state's row — the u-sum estimation is the
// §VI hot path — on a pool of workers, then assembles the sparse matrix
// serially in state order so the result is independent of scheduling.
// Each builder row is reserved at its entry count up front, all from one
// slab, so assembly never regrows a row.
func (m *CompactModel) buildMatrix(workers int) error {
	n := len(m.states)
	m.est = make([]StateEstimates, n)
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
			rows[idx] = m.buildRow(pool[0], idx)
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
					rows[idx] = m.buildRow(estimator, idx)
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
		if row.hasEst {
			m.est[idx] = row.est
		}
		for k := row.lo; k < row.hi; k++ {
			m.matrix.Add(idx, row.slab.tos[k], row.slab.ps[k])
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

// NumStates returns the state-space size (Σ C(|Rules|, k), k ≤ n).
func (m *CompactModel) NumStates() int { return len(m.states) }

// Matrix exposes the transition matrix for diagnostics and benchmarks.
func (m *CompactModel) Matrix() *markov.Sparse { return m.matrix }

// ModelConfig returns the model's configuration.
func (m *CompactModel) ModelConfig() Config { return m.cfg }

// StateMask returns the cached-rule bitmask of state i.
func (m *CompactModel) StateMask(i int) uint64 { return m.states[i] }

// Estimates returns the §IV-B estimates of state i (zero value for the
// empty state).
func (m *CompactModel) Estimates(i int) StateEstimates { return m.est[i] }

// InitialDist returns the point distribution on the empty cache.
func (m *CompactModel) InitialDist() markov.Dist {
	return markov.PointDist(len(m.states), m.index[0])
}

// EvolveInPlace advances d in place by steps (Eqn 8), using a pooled
// workspace so repeated calls (probe sweeps, per-trial model pushes)
// allocate nothing. The frozen CSR kernel keeps the result bit-identical
// to the reference Sparse.Evolve. Safe for concurrent use; each call
// draws its own workspace.
func (m *CompactModel) EvolveInPlace(d markov.Dist, steps int) {
	var start time.Time
	instrumented := evolveInstrumented()
	if instrumented {
		start = time.Now()
	}
	ws := m.wsPool.Get().(*markov.Workspace)
	m.frozen.EvolveInPlace(ws, d, steps)
	m.wsPool.Put(ws)
	if instrumented {
		obsEvolve(float64(time.Since(start).Nanoseconds()))
	}
}

// Frozen exposes the CSR kernel for diagnostics and benchmarks.
func (m *CompactModel) Frozen() *markov.CSR { return m.frozen }

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

// CachedProbability returns P(rule j ∈ cache) under d.
func (m *CompactModel) CachedProbability(d markov.Dist, j int) float64 {
	bit := uint64(1) << uint(j)
	return d.MassWhere(func(i int) bool { return m.states[i]&bit != 0 })
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
			dst[m.index[mask|bit]] += p
			continue
		}
		est := m.est[i]
		for rem := mask; rem != 0; {
			v := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(v)
			to := (mask | bit) &^ (1 << uint(v))
			dst[m.index[to]] += p * est.Evict[v]
		}
	}
}
