// Package markov provides the discrete-time Markov-chain machinery of
// the paper's switch models: dense distributions, a sparse transition
// matrix builder, and its frozen form that evolves distributions (Eqn 8
// of the paper, I_T = Aᵀ I_0). The reference scatter that the frozen
// kernels are bit-identical to lives in this package's tests.
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

// Sum returns the total mass (1 for a proper distribution; < 1 for the
// substochastic joints used in target conditioning).
func (d Dist) Sum() float64 {
	var s float64
	for _, v := range d {
		s += v
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
}

// NewSparse returns an n×n zero matrix.
func NewSparse(n int) *Sparse {
	return &Sparse{n: n, rows: make([][]edge, n)}
}

// NewSparseReserved returns a len(rowCaps)×len(rowCaps) zero matrix whose
// row i has room for rowCaps[i] entries before Append must grow it. All rows
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

// MemBytes estimates the builder's heap footprint: every row's edge
// capacity — append slack and reserved room count, not only the stored
// entries — plus the row headers.
func (m *Sparse) MemBytes() int64 {
	const (
		edgeBytes   = 16 // edge{to, p}
		headerBytes = 24 // slice header per row
	)
	b := int64(len(m.rows)) * headerBytes
	for _, row := range m.rows {
		b += int64(cap(row)) * edgeBytes
	}
	return b
}

// Append stores p as a new (from, to) entry. The caller guarantees that
// the row holds no entry for to yet.
func (m *Sparse) Append(from, to int, p float64) {
	m.rows[from] = append(m.rows[from], edge{to: to, p: p})
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
