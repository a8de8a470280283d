package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	d := PointDist(3, 1)
	if d.Sum() != 1 || d[1] != 1 {
		t.Fatalf("point dist = %v", d)
	}
	c := d.Clone()
	c[0] = 5
	if d[0] != 0 {
		t.Fatal("clone aliased")
	}
	u := Dist{2, 2}
	if got := u.Normalize(); got != 4 {
		t.Fatalf("normalize returned %v", got)
	}
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("normalized = %v", u)
	}
	var zero Dist = []float64{0, 0}
	if zero.Normalize() != 0 {
		t.Fatal("zero-mass normalize")
	}
}

func TestMassWhere(t *testing.T) {
	d := Dist{0.2, 0.3, 0.5}
	if got := d.MassWhere(func(i int) bool { return i > 0 }); math.Abs(got-0.8) > 1e-15 {
		t.Fatalf("mass = %v", got)
	}
}

func twoState() *Sparse {
	m := NewSparse(2)
	m.Add(0, 0, 0.9)
	m.Add(0, 1, 0.1)
	m.Add(1, 0, 0.5)
	m.Add(1, 1, 0.5)
	return m
}

func TestSparseApply(t *testing.T) {
	m := twoState()
	d := m.Apply(PointDist(2, 0))
	if math.Abs(d[0]-0.9) > 1e-15 || math.Abs(d[1]-0.1) > 1e-15 {
		t.Fatalf("apply = %v", d)
	}
	if err := m.CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestSparseAddAccumulates(t *testing.T) {
	m := NewSparse(1)
	m.Add(0, 0, 0.25)
	m.Add(0, 0, 0.75)
	m.Add(0, 0, 0) // no-op
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if s := m.RowSum(0); s != 1 {
		t.Fatalf("rowsum = %v", s)
	}
	tos, ps := m.Row(0)
	if len(tos) != 1 || tos[0] != 0 || ps[0] != 1 {
		t.Fatalf("row = %v %v", tos, ps)
	}
}

func TestEvolveConvergesToStationary(t *testing.T) {
	m := twoState()
	// Stationary distribution of [[.9,.1],[.5,.5]] is (5/6, 1/6).
	d := m.Evolve(PointDist(2, 1), 200)
	if math.Abs(d[0]-5.0/6) > 1e-9 || math.Abs(d[1]-1.0/6) > 1e-9 {
		t.Fatalf("stationary = %v", d)
	}
}

func TestEvolvePreservesMass(t *testing.T) {
	f := func(a, b, steps uint8) bool {
		pa := float64(a%100) / 100
		pb := float64(b%100) / 100
		m := NewSparse(2)
		m.Add(0, 0, pa)
		m.Add(0, 1, 1-pa)
		m.Add(1, 0, pb)
		m.Add(1, 1, 1-pb)
		d := m.Evolve(Dist{0.3, 0.7}, int(steps%50))
		return math.Abs(d.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeRows(t *testing.T) {
	m := NewSparse(2)
	m.Add(0, 0, 3)
	m.Add(0, 1, 1)
	m.NormalizeRows()
	if err := m.CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
	_, ps := m.Row(0)
	if ps[0] != 0.75 || ps[1] != 0.25 {
		t.Fatalf("row = %v", ps)
	}
}

func TestCheckStochasticFails(t *testing.T) {
	m := NewSparse(1)
	m.Add(0, 0, 0.5)
	if err := m.CheckStochastic(1e-6); err == nil {
		t.Fatal("substochastic row passed check")
	}
}

func TestExplore(t *testing.T) {
	// Random walk on 0..4 with absorbing ends.
	next := func(s int) []Transition[int] {
		if s == 0 || s == 4 {
			return []Transition[int]{{To: s, P: 1}}
		}
		return []Transition[int]{{To: s - 1, P: 0.5}, {To: s + 1, P: 0.5}}
	}
	res, err := Explore(2, next, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 5 {
		t.Fatalf("states = %v", res.States)
	}
	if err := res.Matrix.CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
	// Absorption probability from the middle is 1/2 each.
	d := res.Matrix.Evolve(PointDist(5, res.Index[2]), 500)
	if math.Abs(d[res.Index[0]]-0.5) > 1e-9 || math.Abs(d[res.Index[4]]-0.5) > 1e-9 {
		t.Fatalf("absorption = %v", d)
	}
}

func TestExploreLimit(t *testing.T) {
	next := func(s int) []Transition[int] {
		return []Transition[int]{{To: s + 1, P: 1}}
	}
	_, err := Explore(0, next, 10)
	var tooBig *ErrStateSpaceTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v", err)
	}
	if tooBig.Limit != 10 || tooBig.Error() == "" {
		t.Fatalf("bad error: %+v", tooBig)
	}
}

func TestSparseReservedMatchesSparse(t *testing.T) {
	caps := []int{3, 0, 1}
	r, s := NewSparseReserved(caps), NewSparse(3)
	for _, m := range []*Sparse{r, s} {
		m.Add(0, 1, 0.25)
		m.Add(0, 2, 0.5)
		m.Add(0, 1, 0.25) // coalesces
		m.Add(1, 0, 1)    // outgrows its empty reservation
		m.Add(2, 2, 0.5)
		m.Add(2, 0, 0.5) // outgrows its reservation of one
	}
	for i := range caps {
		rt, rp := r.Row(i)
		st, sp := s.Row(i)
		if len(rt) != len(st) {
			t.Fatalf("row %d: %v vs %v", i, rt, st)
		}
		for k := range rt {
			if rt[k] != st[k] || rp[k] != sp[k] {
				t.Fatalf("row %d: (%v %v) vs (%v %v)", i, rt, rp, st, sp)
			}
		}
	}
}

func TestSparseMemBytesCountsCapacity(t *testing.T) {
	m := NewSparseReserved([]int{10, 0})
	m.Add(0, 1, 1)
	m.Add(1, 0, 1)
	if got, min := m.MemBytes(), int64(11*16); got < min {
		t.Fatalf("MemBytes = %d, want ≥ %d: the 10-entry reservation counts", got, min)
	}
	// Append slack counts too: five appends leave a row capacity of 8.
	a := NewSparse(1)
	for to := 0; to < 5; to++ {
		a.Add(0, to, 0.2)
	}
	if got := a.MemBytes(); got < int64(cap(a.rows[0]))*16 || cap(a.rows[0]) <= 5 {
		t.Fatalf("MemBytes = %d for a row of %d entries and capacity %d", got, len(a.rows[0]), cap(a.rows[0]))
	}
}
