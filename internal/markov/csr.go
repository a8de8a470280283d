// CSR is the frozen, flat-array form of a Sparse transition matrix: the
// mutable Sparse is the builder, Freeze produces an immutable kernel
// object that supports allocation-free in-place evolution (ping-pong
// buffers with support tracking) and a row-sharded parallel matvec that
// kicks in above a size threshold.
//
// Bit-for-bit determinism contract: every apply/evolve path in this file
// produces results identical (0 ulp) to the reference scatter loop (kept
// in this package's tests as Sparse.apply).
// The reference is a scatter over source states in ascending order,
// skipping zero-mass sources. Two observations make the fast paths safe:
//
//  1. A gather over a destination's incoming edges, with sources sorted
//     ascending and no zero-skip, accumulates each destination in the
//     same term order as the reference scatter — the skipped zero-mass
//     sources contribute exactly +0.0, and x + 0.0 == x bit-for-bit when
//     all stored probabilities and masses are non-negative (so no -0.0
//     terms arise). Hence serial gather, parallel row-sharded gather
//     (each destination is computed independently), and the reference
//     scatter agree to the last bit. The gather works on two
//     destinations per pass, so that their add chains overlap; each
//     destination still has its own accumulator and adds every incoming
//     edge, in ascending-source order, with no zero-skip.
//  2. A scatter over a sorted support list (the nonzero sources, plus
//     possibly sources whose mass underflowed to +0, which contribute
//     no-op terms) likewise preserves the reference accumulation order.
package markov

import (
	"runtime"
	"slices"
	"sync"
)

// parallelNNZThreshold is the number of stored entries above which
// ApplyInto shards the gather across workers. Below it the
// goroutine-dispatch overhead dominates the multiply itself.
const parallelNNZThreshold = 1 << 15

// denseCutoverNum/denseCutoverDen: when the tracked support exceeds
// n·num/den states, support bookkeeping stops paying for itself and
// EvolveInPlace switches to dense gather steps.
const (
	denseCutoverNum = 1
	denseCutoverDen = 4
)

// CSR is a frozen sparse transition matrix holding both the forward
// (row = source) arrays used by support-tracked scatter steps and the
// transposed gather (row = destination) arrays used by the dense and
// parallel matvec paths.
type CSR struct {
	n int

	// Forward scatter form: row i's outgoing edges are
	// colIdx/val[rowPtr[i]:rowPtr[i+1]], sorted by destination.
	rowPtr []int32
	colIdx []int32
	val    []float64

	// Gather (transpose) form: destination d's incoming edges are
	// gatSrc/gatVal[gatPtr[d]:gatPtr[d+1]], sorted by source ascending
	// (see the determinism contract above).
	gatPtr []int32
	gatSrc []int32
	gatVal []float64

	workers int
}

// MemBytes estimates the heap footprint of the frozen matrix: both the
// scatter and gather arrays. Struct and slice-header overhead is ignored.
func (c *CSR) MemBytes() int64 {
	return int64(len(c.rowPtr)+len(c.colIdx)+len(c.gatPtr)+len(c.gatSrc))*4 +
		int64(len(c.val)+len(c.gatVal))*8
}

// Freeze converts the builder matrix into its immutable CSR form.
// Duplicate (from, to) entries — which Append's callers never store — are
// summed during the sort+compact pass.
// The builder is left untouched and may keep being mutated; the CSR is a
// deep snapshot.
func (m *Sparse) Freeze() *CSR {
	nnz := m.NNZ()
	c := &CSR{
		n:       m.n,
		rowPtr:  make([]int32, m.n+1),
		colIdx:  make([]int32, 0, nnz),
		val:     make([]float64, 0, nnz),
		workers: runtime.GOMAXPROCS(0),
	}
	scratch := make([]edge, 0, 64)
	for i, row := range m.rows {
		scratch = append(scratch[:0], row...)
		slices.SortFunc(scratch, func(a, b edge) int { return a.to - b.to })
		for j := 0; j < len(scratch); {
			to, p := scratch[j].to, scratch[j].p
			for j++; j < len(scratch) && scratch[j].to == to; j++ {
				p += scratch[j].p
			}
			c.colIdx = append(c.colIdx, int32(to))
			c.val = append(c.val, p)
		}
		c.rowPtr[i+1] = int32(len(c.colIdx))
	}
	c.buildGather()
	return c
}

// buildGather derives the transpose arrays from the forward arrays.
// Iterating sources in ascending order fills each destination's incoming
// edge list in ascending-source order for free.
func (c *CSR) buildGather() {
	nnz := len(c.colIdx)
	c.gatPtr = make([]int32, c.n+1)
	c.gatSrc = make([]int32, nnz)
	c.gatVal = make([]float64, nnz)
	for _, to := range c.colIdx {
		c.gatPtr[to+1]++
	}
	for d := 0; d < c.n; d++ {
		c.gatPtr[d+1] += c.gatPtr[d]
	}
	next := make([]int32, c.n)
	copy(next, c.gatPtr[:c.n])
	for from := 0; from < c.n; from++ {
		for k := c.rowPtr[from]; k < c.rowPtr[from+1]; k++ {
			to := c.colIdx[k]
			pos := next[to]
			c.gatSrc[pos] = int32(from)
			c.gatVal[pos] = c.val[k]
			next[to] = pos + 1
		}
	}
}

// ApplyInto writes one evolution step of src into dst (dst[to] =
// Σ_from src[from]·P[from→to]) without allocating. dst is fully
// overwritten; dst and src must not alias. Shards rows across workers
// when the matrix is large enough.
func (c *CSR) ApplyInto(dst, src Dist) {
	if len(dst) != c.n || len(src) != c.n {
		panic("markov: ApplyInto dimension mismatch")
	}
	if c.workers > 1 && len(c.gatSrc) >= parallelNNZThreshold {
		c.applyGatherParallel(dst, src)
		return
	}
	c.applyGatherRange(dst, src, 0, c.n)
}

// applyGatherRange computes destinations [lo, hi) by gathering incoming
// edges in ascending-source order. It gathers two destinations per pass,
// so that their independent add chains overlap; each still adds its own
// terms in ascending-source order.
func (c *CSR) applyGatherRange(dst, src Dist, lo, hi int) {
	ptr := c.gatPtr[lo : hi+1]
	dst = dst[lo:hi]
	d := 0
	for ; d+1 < len(dst); d += 2 {
		k0, k1, k2 := ptr[d], ptr[d+1], ptr[d+2]
		from0, vals0 := c.gatSrc[k0:k1], c.gatVal[k0:k1]
		from1, vals1 := c.gatSrc[k1:k2], c.gatVal[k1:k2]
		vals0, vals1 = vals0[:len(from0)], vals1[:len(from1)]
		var acc0, acc1 float64
		both := min(len(from0), len(from1))
		for k := 0; k < both; k++ {
			acc0 += src[from0[k]] * vals0[k]
			acc1 += src[from1[k]] * vals1[k]
		}
		for k := both; k < len(from0); k++ {
			acc0 += src[from0[k]] * vals0[k]
		}
		for k := both; k < len(from1); k++ {
			acc1 += src[from1[k]] * vals1[k]
		}
		dst[d], dst[d+1] = acc0, acc1
	}
	if d < len(dst) {
		from, vals := c.gatSrc[ptr[d]:ptr[d+1]], c.gatVal[ptr[d]:ptr[d+1]]
		vals = vals[:len(from)]
		var acc float64
		for k, f := range from {
			acc += src[f] * vals[k]
		}
		dst[d] = acc
	}
}

// applyGatherParallel shards destination rows into contiguous chunks of
// roughly equal stored-entry count and gathers each chunk on its own
// goroutine. Each destination is owned by exactly one worker, so the
// result is deterministic and bit-identical to the serial gather.
func (c *CSR) applyGatherParallel(dst, src Dist) {
	w := c.workers
	nnz := len(c.gatSrc)
	var wg sync.WaitGroup
	lo := 0
	for i := 1; i <= w && lo < c.n; i++ {
		hi := c.n
		if i < w {
			// First row index whose cumulative entry count reaches the
			// i-th share. gatPtr is sorted, so binary search applies.
			target := int32(nnz / w * i)
			hi, _ = slices.BinarySearch(c.gatPtr[1:], target)
			hi++
			if hi <= lo {
				continue
			}
			if hi > c.n {
				hi = c.n
			}
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			c.applyGatherRange(dst, src, lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// Workspace holds the ping-pong buffers and support bookkeeping for
// EvolveInPlace. A Workspace is not safe for concurrent use; reuse one
// per goroutine. The zero-mass invariant (both buffers all zero between
// calls) is maintained internally.
type Workspace struct {
	n        int
	cur      Dist
	next     Dist
	stamp    []int64
	epoch    int64
	support  []int32
	touched  []int32
	denseCnt int64 // steps executed in dense mode (read by tests)
}

// NewWorkspace returns a workspace for n-state distributions.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		n:     n,
		cur:   make(Dist, n),
		next:  make(Dist, n),
		stamp: make([]int64, n),
	}
}

// EvolveInPlace advances d by steps, overwriting d with the result. It
// performs zero per-step heap allocation once the workspace's support
// slices have warmed up. Sparse (support-tracked scatter) steps are used
// while the distribution's support stays small; once support exceeds a
// quarter of the state space the loop switches to dense gather steps
// (which also engage the parallel matvec on large matrices). All paths
// are bit-identical to the reference scatter.
func (c *CSR) EvolveInPlace(ws *Workspace, d Dist, steps int) {
	if len(d) != c.n {
		panic("markov: EvolveInPlace dimension mismatch")
	}
	if ws == nil {
		ws = NewWorkspace(c.n)
	} else if ws.n != c.n {
		panic("markov: workspace size mismatch")
	}
	if steps <= 0 {
		return
	}
	// Load d into the current buffer, recording its support.
	ws.support = ws.support[:0]
	for i, v := range d {
		if v != 0 {
			ws.cur[i] = v
			ws.support = append(ws.support, int32(i))
		}
	}
	dense := false
	for s := 0; s < steps; s++ {
		if !dense && len(ws.support)*denseCutoverDen >= c.n*denseCutoverNum {
			dense = true
		}
		if dense {
			ws.denseCnt++
			c.ApplyInto(ws.next, ws.cur)
		} else {
			ws.epoch++
			ws.touched = ws.touched[:0]
			for _, from := range ws.support {
				p := ws.cur[from]
				for k := c.rowPtr[from]; k < c.rowPtr[from+1]; k++ {
					to := c.colIdx[k]
					if ws.stamp[to] != ws.epoch {
						ws.stamp[to] = ws.epoch
						ws.touched = append(ws.touched, to)
						ws.next[to] = p * c.val[k]
					} else {
						ws.next[to] += p * c.val[k]
					}
				}
			}
			// Restore the zero invariant on the outgoing buffer and
			// adopt the sorted touched set as the new support, keeping
			// the ascending-source iteration order of the reference.
			for _, i := range ws.support {
				ws.cur[i] = 0
			}
			slices.Sort(ws.touched)
			ws.support, ws.touched = ws.touched, ws.support
		}
		ws.cur, ws.next = ws.next, ws.cur
	}
	copy(d, ws.cur)
	// Re-zero the buffers for the next call. In dense mode the buffers
	// hold arbitrary stale values; in sparse mode only the support
	// entries of cur are live (next was zeroed before the final swap).
	if dense {
		clear(ws.cur)
		clear(ws.next)
	} else {
		for _, i := range ws.support {
			ws.cur[i] = 0
		}
	}
	ws.support = ws.support[:0]
}
