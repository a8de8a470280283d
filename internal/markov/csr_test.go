package markov

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomChain builds a random row-stochastic Sparse with out-degree up
// to deg, plus a random initial distribution with small support.
func randomChain(t *testing.T, n, deg, supp int, seed int64) (*Sparse, Dist) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := NewSparse(n)
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(deg)
		for j := 0; j < k; j++ {
			m.add(i, r.Intn(n), r.Float64())
		}
	}
	m.NormalizeRows()
	d := make(Dist, n)
	for j := 0; j < supp; j++ {
		d[r.Intn(n)] += r.Float64()
	}
	var mass float64
	for _, v := range d {
		mass += v
	}
	for i := range d {
		d[i] /= mass
	}
	return m, d
}

func distsEqualBits(a, b Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCSRApplyMatchesSparseBitwise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		m, d := randomChain(t, 257, 9, 6, seed)
		c := m.Freeze()
		if len(c.colIdx) != m.NNZ() {
			t.Fatalf("seed %d: NNZ mismatch: csr %d sparse %d", seed, len(c.colIdx), m.NNZ())
		}
		want := m.apply(d)
		dst := make(Dist, c.n)
		c.ApplyInto(dst, d)
		if !distsEqualBits(want, dst) {
			t.Fatalf("seed %d: ApplyInto differs from the reference scatter", seed)
		}
	}
}

// TestCSRParallelApplyBitIdentical runs the sharded gather itself, below
// the size at which ApplyInto would choose it, at each worker count.
func TestCSRParallelApplyBitIdentical(t *testing.T) {
	m, d := randomChain(t, 501, 11, 20, 42)
	c := m.Freeze()
	want := m.apply(d)
	for _, w := range []int{1, 2, 3, 7, 16, 64, 501, 1000} {
		c.workers = w
		got := make(Dist, c.n)
		c.applyGatherParallel(got, d)
		if !distsEqualBits(want, got) {
			t.Fatalf("workers=%d: parallel gather differs from reference", w)
		}
	}
}

func TestCSREvolveInPlaceBitIdentical(t *testing.T) {
	for _, steps := range []int{0, 1, 2, 17, 300} {
		m, d := randomChain(t, 311, 7, 3, int64(steps)+9)
		c := m.Freeze()
		want := m.evolve(d, steps)
		ws := NewWorkspace(c.n)
		got := slices.Clone(d)
		c.EvolveInPlace(ws, got, steps)
		if !distsEqualBits(want, got) {
			t.Fatalf("steps=%d: EvolveInPlace differs from the reference scatter", steps)
		}
		// Workspace reuse: a second run from the same input must agree,
		// proving the zero-buffer invariant was restored.
		got2 := slices.Clone(d)
		c.EvolveInPlace(ws, got2, steps)
		if !distsEqualBits(want, got2) {
			t.Fatalf("steps=%d: workspace reuse broke determinism", steps)
		}
	}
}

func TestCSREvolveDenseCutover(t *testing.T) {
	// A strongly-connected dense-ish chain spreads mass everywhere, so
	// the workspace must cross into dense mode and still agree bitwise.
	m, d := randomChain(t, 97, 24, 1, 7)
	c := m.Freeze()
	want := m.evolve(d, 40)
	ws := NewWorkspace(c.n)
	got := slices.Clone(d)
	c.EvolveInPlace(ws, got, 40)
	if ws.denseCnt == 0 {
		t.Fatalf("expected dense cutover on a dense chain")
	}
	if !distsEqualBits(want, got) {
		t.Fatalf("dense-mode evolve differs from reference")
	}
	// And the workspace must still be clean for a sparse follow-up.
	m2, d2 := randomChain(t, 97, 3, 2, 8)
	c2 := m2.Freeze()
	want2 := m2.evolve(d2, 25)
	got2 := slices.Clone(d2)
	c2.EvolveInPlace(ws, got2, 25)
	if !distsEqualBits(want2, got2) {
		t.Fatalf("workspace dirty after dense-mode run")
	}
}

func TestCSREvolveInPlaceZeroAlloc(t *testing.T) {
	m, d := randomChain(t, 400, 6, 4, 11)
	c := m.Freeze()
	ws := NewWorkspace(c.n)
	buf := slices.Clone(d)
	c.EvolveInPlace(ws, buf, 50) // warm the support slices
	copy(buf, d)
	allocs := testing.AllocsPerRun(10, func() {
		copy(buf, d)
		c.EvolveInPlace(ws, buf, 50)
	})
	if allocs > 0 {
		t.Fatalf("EvolveInPlace allocated %.1f objects/run, want 0", allocs)
	}
}

func TestFreezeCompactsDuplicateEntries(t *testing.T) {
	// Freeze must sort rows by destination and keep stochasticity.
	m := NewSparse(5)
	m.add(0, 3, 0.25)
	m.add(0, 1, 0.5)
	m.add(0, 3, 0.25)
	m.add(2, 4, 1)
	c := m.Freeze()
	if len(c.colIdx) != 3 {
		t.Fatalf("NNZ = %d, want 3", len(c.colIdx))
	}
	out := make(Dist, c.n)
	c.ApplyInto(out, PointDist(5, 0))
	if out[1] != 0.5 || out[3] != 0.5 {
		t.Fatalf("Apply after compact: got %v", out)
	}
}

func BenchmarkCSREvolveInPlace(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 2510
	m := NewSparse(n)
	for i := 0; i < n; i++ {
		k := 1 + r.Intn(15)
		for j := 0; j < k; j++ {
			m.add(i, r.Intn(n), r.Float64())
		}
	}
	m.NormalizeRows()
	c := m.Freeze()
	d := PointDist(n, 0)
	ws := NewWorkspace(n)
	buf := slices.Clone(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, d)
		c.EvolveInPlace(ws, buf, 100)
	}
}
