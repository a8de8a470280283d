// Package markov provides the discrete-time Markov-chain machinery shared
// by the paper's basic and compact switch models: dense distributions,
// sparse transition matrices, distribution evolution (Eqn 8 of the paper,
// I_T = Aᵀ I_0), and a reachable-state explorer.
package markov

import (
	"fmt"
	"math"
)

// Dist is a probability distribution over states indexed 0..n-1.
type Dist []float64

// PointDist returns a distribution of size n with all mass on state i.
func PointDist(n, i int) Dist {
	d := make(Dist, n)
	d[i] = 1
	return d
}

// Clone returns an independent copy.
func (d Dist) Clone() Dist {
	out := make(Dist, len(d))
	copy(out, d)
	return out
}

// Sum returns the total mass (1 for a proper distribution; < 1 for the
// substochastic joints used in target conditioning).
func (d Dist) Sum() float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s
}

// Normalize scales d to unit mass in place and returns the prior mass.
// A zero-mass distribution is left unchanged.
func (d Dist) Normalize() float64 {
	s := d.Sum()
	if s <= 0 {
		return s
	}
	for i := range d {
		d[i] /= s
	}
	return s
}

// MassWhere returns the total probability of states satisfying pred.
func (d Dist) MassWhere(pred func(state int) bool) float64 {
	var s float64
	for i, v := range d {
		if v != 0 && pred(i) {
			s += v
		}
	}
	return s
}

// edge is one sparse matrix entry.
type edge struct {
	to int
	p  float64
}

// Sparse is a sparse transition matrix in row-major (from-state) form.
type Sparse struct {
	n    int
	rows [][]edge
	// idx[from] maps destination → position in rows[from]. Built lazily
	// once a row grows past addIndexThreshold so that Add stays O(1)
	// amortized instead of the former O(row) duplicate scan (which made
	// dense-row construction quadratic).
	idx []map[int]int
}

// addIndexThreshold is the row length above which Add switches from a
// short linear scan (cache-friendly for the typical few-entry row) to a
// per-row destination index.
const addIndexThreshold = 12

// NewSparse returns an n×n zero matrix.
func NewSparse(n int) *Sparse {
	return &Sparse{n: n, rows: make([][]edge, n)}
}

// NewSparseReserved returns a len(rowCaps)×len(rowCaps) zero matrix whose
// row i has room for rowCaps[i] entries before Add must grow it. All rows
// are carved from one slab, so a builder that knows its row sizes
// allocates its edges once instead of regrowing every row. A row that
// outgrows its reservation reallocates on its own without touching its
// neighbours.
func NewSparseReserved(rowCaps []int) *Sparse {
	total := 0
	for _, c := range rowCaps {
		total += c
	}
	slab := make([]edge, total)
	m := NewSparse(len(rowCaps))
	off := 0
	for i, c := range rowCaps {
		m.rows[i] = slab[off : off : off+c]
		off += c
	}
	return m
}

// Size returns the number of states.
func (m *Sparse) Size() int { return m.n }

// MemBytes estimates the builder's heap footprint: every row's edge
// capacity — append slack and reserved room count, not only the stored
// entries — plus the row headers and, for long rows, their destination
// indexes (approximated per entry).
func (m *Sparse) MemBytes() int64 {
	const (
		edgeBytes   = 16 // edge{to, p}
		headerBytes = 24 // slice header per row
		mapEntry    = 48 // rough per-entry bucket + key + value cost
	)
	b := int64(len(m.rows)) * headerBytes
	for _, row := range m.rows {
		b += int64(cap(row)) * edgeBytes
	}
	for _, ix := range m.idx {
		b += int64(len(ix)) * mapEntry
	}
	return b
}

// Add accumulates probability p onto the (from, to) entry.
func (m *Sparse) Add(from, to int, p float64) {
	if p == 0 {
		return
	}
	row := m.rows[from]
	if m.idx != nil && m.idx[from] != nil {
		ix := m.idx[from]
		if i, ok := ix[to]; ok {
			row[i].p += p
			return
		}
		ix[to] = len(row)
		m.rows[from] = append(row, edge{to: to, p: p})
		return
	}
	for i := range row {
		if row[i].to == to {
			row[i].p += p
			return
		}
	}
	m.rows[from] = append(row, edge{to: to, p: p})
	if len(row)+1 > addIndexThreshold {
		m.buildRowIndex(from)
	}
}

// buildRowIndex promotes a row to indexed duplicate detection.
func (m *Sparse) buildRowIndex(from int) {
	if m.idx == nil {
		m.idx = make([]map[int]int, m.n)
	}
	ix := make(map[int]int, 2*len(m.rows[from]))
	for i, e := range m.rows[from] {
		ix[e.to] = i
	}
	m.idx[from] = ix
}

// Row returns the (to, p) pairs of a row as parallel slices.
func (m *Sparse) Row(from int) (tos []int, ps []float64) {
	row := m.rows[from]
	tos = make([]int, len(row))
	ps = make([]float64, len(row))
	for i, e := range row {
		tos[i], ps[i] = e.to, e.p
	}
	return tos, ps
}

// RowSum returns the total outgoing probability of a row.
func (m *Sparse) RowSum(from int) float64 {
	var s float64
	for _, e := range m.rows[from] {
		s += e.p
	}
	return s
}

// NormalizeRows scales every non-empty row to sum to one, the
// normalization step of §IV-A1.
func (m *Sparse) NormalizeRows() {
	for _, row := range m.rows {
		var s float64
		for _, e := range row {
			s += e.p
		}
		if s <= 0 {
			continue
		}
		for i := range row {
			row[i].p /= s
		}
	}
}

// CheckStochastic returns an error if any non-empty row's sum deviates
// from 1 by more than tol.
func (m *Sparse) CheckStochastic(tol float64) error {
	for i, row := range m.rows {
		if len(row) == 0 {
			continue
		}
		if s := m.RowSum(i); math.Abs(s-1) > tol {
			return fmt.Errorf("markov: row %d sums to %v", i, s)
		}
	}
	return nil
}

// NNZ returns the number of stored entries.
func (m *Sparse) NNZ() int {
	n := 0
	for _, row := range m.rows {
		n += len(row)
	}
	return n
}

// Apply advances a distribution one step: out[to] = Σ_from d[from]·P[from→to].
func (m *Sparse) Apply(d Dist) Dist {
	out := make(Dist, m.n)
	for from, p := range d {
		if p == 0 {
			continue
		}
		for _, e := range m.rows[from] {
			out[e.to] += p * e.p
		}
	}
	return out
}

// Evolve advances a distribution T steps (Eqn 8: I_T = Aᵀ I_0).
func (m *Sparse) Evolve(d Dist, steps int) Dist {
	cur := d.Clone()
	for i := 0; i < steps; i++ {
		cur = m.Apply(cur)
	}
	return cur
}

// Transition is one outgoing edge produced by a state-transition function.
type Transition[K comparable] struct {
	To K
	P  float64
}

// ExploreResult is the output of Explore: a state index assignment and the
// sparse transition matrix over the reachable states.
type ExploreResult[K comparable] struct {
	States []K       // index → state key
	Index  map[K]int // state key → index
	Matrix *Sparse   // transition probabilities over indices
}

// ErrStateSpaceTooLarge is returned when exploration exceeds its budget.
type ErrStateSpaceTooLarge struct {
	Limit int
}

// Error implements the error interface.
func (e *ErrStateSpaceTooLarge) Error() string {
	return fmt.Sprintf("markov: reachable state space exceeds limit %d", e.Limit)
}

// Explore breadth-first enumerates the states reachable from seed under
// next and assembles the transition matrix. next must be deterministic.
// maxStates bounds the exploration (the basic model's state space grows as
// §IV-A2 describes); exceeding it returns ErrStateSpaceTooLarge.
func Explore[K comparable](seed K, next func(K) []Transition[K], maxStates int) (*ExploreResult[K], error) {
	res := &ExploreResult[K]{Index: map[K]int{seed: 0}, States: []K{seed}}
	type rowEdges struct {
		from  int
		edges []Transition[K]
	}
	var pending []rowEdges
	for i := 0; i < len(res.States); i++ {
		out := next(res.States[i])
		for _, tr := range out {
			if _, ok := res.Index[tr.To]; !ok {
				if len(res.States) >= maxStates {
					return nil, &ErrStateSpaceTooLarge{Limit: maxStates}
				}
				res.Index[tr.To] = len(res.States)
				res.States = append(res.States, tr.To)
			}
		}
		pending = append(pending, rowEdges{from: i, edges: out})
	}
	res.Matrix = NewSparse(len(res.States))
	for _, row := range pending {
		for _, tr := range row.edges {
			res.Matrix.Add(row.from, res.Index[tr.To], tr.P)
		}
	}
	return res, nil
}
