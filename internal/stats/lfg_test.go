package stats

import (
	"math"
	"math/rand"
	"testing"

	"flowrecon/internal/testutil"
)

// rngOp is one stats.RNG method paired with its math/rand reference. Both
// sides return the values drawn as bit patterns, so float results compare
// exactly (NaN-safe, sign-of-zero-safe).
type rngOp struct {
	name string
	got  func(*RNG) []uint64
	want func(*rand.Rand) []uint64
}

func fbits(x float64) []uint64 { return []uint64{math.Float64bits(x)} }

func ibits(xs ...int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func bbits(b bool) []uint64 {
	if b {
		return []uint64{1}
	}
	return []uint64{0}
}

func shuffled(n int, shuffle func(int, func(i, j int))) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// rngOps covers every drawing method of RNG, including Fork, whose child
// stream is checked against rand.NewSource of the parent's next Int63.
var rngOps = []rngOp{
	{"Int63", func(g *RNG) []uint64 { return []uint64{uint64(g.Int63())} },
		func(r *rand.Rand) []uint64 { return []uint64{uint64(r.Int63())} }},
	{"Float64", func(g *RNG) []uint64 { return fbits(g.Float64()) },
		func(r *rand.Rand) []uint64 { return fbits(r.Float64()) }},
	{"Intn", func(g *RNG) []uint64 { return ibits(g.Intn(97)) },
		func(r *rand.Rand) []uint64 { return ibits(r.Intn(97)) }},
	{"Intn63", func(g *RNG) []uint64 { return ibits(g.Intn(3 << 40)) },
		func(r *rand.Rand) []uint64 { return ibits(r.Intn(3 << 40)) }},
	{"Perm", func(g *RNG) []uint64 { return ibits(g.Perm(9)...) },
		func(r *rand.Rand) []uint64 { return ibits(r.Perm(9)...) }},
	{"Shuffle", func(g *RNG) []uint64 { return ibits(shuffled(7, g.Shuffle)...) },
		func(r *rand.Rand) []uint64 { return ibits(shuffled(7, r.Shuffle)...) }},
	{"Exp", func(g *RNG) []uint64 { return fbits(g.Exp(2.5)) },
		func(r *rand.Rand) []uint64 { return fbits(r.ExpFloat64() / 2.5) }},
	{"Normal", func(g *RNG) []uint64 { return fbits(g.Normal(1, 2)) },
		func(r *rand.Rand) []uint64 { return fbits(1 + 2*r.NormFloat64()) }},
	{"Bernoulli", func(g *RNG) []uint64 { return bbits(g.Bernoulli(0.3)) },
		func(r *rand.Rand) []uint64 { return bbits(r.Float64() < 0.3) }},
	{"Pareto", func(g *RNG) []uint64 { return fbits(g.Pareto(1.5, 2)) },
		func(r *rand.Rand) []uint64 { return fbits(2 * math.Pow(1-r.Float64(), -1/1.5)) }},
	{"LogNormal", func(g *RNG) []uint64 { return fbits(g.LogNormal(0.5, 1.2)) },
		func(r *rand.Rand) []uint64 { return fbits(math.Exp(0.5 + 1.2*r.NormFloat64())) }},
	{"Fork", func(g *RNG) []uint64 {
		c := g.Fork()
		return []uint64{uint64(c.Int63()), math.Float64bits(c.Float64())}
	}, func(r *rand.Rand) []uint64 {
		c := rand.New(rand.NewSource(r.Int63()))
		return []uint64{uint64(c.Int63()), math.Float64bits(c.Float64())}
	}},
}

// checkAgainstMathRand draws n operations, chosen by pick, from both
// NewRNG(seed) and rand.New(rand.NewSource(seed)) and fails on the first
// divergence. A nil pick draws Int63 only, which walks the raw
// source word by word across the 607- and 1,214-draw boundaries.
func checkAgainstMathRand(t *testing.T, seed int64, n int, pick *rand.Rand) {
	t.Helper()
	g := NewRNG(seed)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		op := rngOps[0]
		if pick != nil {
			op = rngOps[pick.Intn(len(rngOps))]
		}
		got, want := op.got(g), op.want(r)
		if len(got) != len(want) {
			t.Fatalf("seed %d op %d (%s): %d values, want %d", seed, i, op.name, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("seed %d op %d (%s): value %d = %#x, math/rand gives %#x", seed, i, op.name, k, got[k], want[k])
			}
		}
	}
}

var edgeSeeds = []int64{
	0, 1, -1, 2, -2, lehmerSeed0, -lehmerSeed0,
	lehmerM, -lehmerM, 2 * lehmerM, -2 * lehmerM, lehmerM - 1, lehmerM + 1,
	lehmerM * 4294967297, lehmerSeed0 + lehmerM,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	math.MaxInt32, math.MinInt32,
}

// TestRNGMatchesMathRand holds the lazily seeded source to the contract
// in the package doc: every stream is math/rand's, bit for bit.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		checkAgainstMathRand(t, seed, 1300, nil)
		checkAgainstMathRand(t, seed, 1500, rand.New(rand.NewSource(seed^0x5eed)))
	}
	seeds := rand.New(rand.NewSource(20170605))
	for i := 0; i < 1000; i++ {
		seed := seeds.Int63() - seeds.Int63()
		n := 1 + seeds.Intn(40)
		if i%10 == 0 {
			n = 600 + seeds.Intn(1300) // past both 607 and 1,214 raw draws
		}
		checkAgainstMathRand(t, seed, n, rand.New(rand.NewSource(seed)))
	}
}

// TestRNGReseedMatchesNewRNG checks that Reseed restarts a stream in any
// state, including one whose state words have all materialized.
func TestRNGReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(3)
	for _, drawn := range []int{0, 5, 606, 607, 2000} {
		for i := 0; i < drawn; i++ {
			g.Int63()
		}
		for _, seed := range edgeSeeds {
			g.Reseed(seed)
			want := NewRNG(seed)
			for i := 0; i < 700; i++ {
				if a, b := g.Int63(), want.Int63(); a != b {
					t.Fatalf("after %d draws, Reseed(%d) draw %d = %d, NewRNG gives %d", drawn, seed, i, a, b)
				}
			}
		}
	}
}

// FuzzRNGMatchesMathRand extends TestRNGMatchesMathRand to arbitrary
// seeds and operation counts.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(40))
	}
	f.Add(int64(7), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkAgainstMathRand(t, seed, int(n%2048), rand.New(rand.NewSource(seed^int64(n))))
	})
}

// TestRNGReseedZeroAlloc is the allocation gate on stream reuse: the
// per-flow workload loops Reseed one child stream instead of forking.
func TestRNGReseedZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := NewRNG(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		g.Reseed(seed)
		g.Float64()
		g.Exp(2)
		g.Normal(0, 1)
		g.Intn(10)
	})
	if allocs != 0 {
		t.Fatalf("Reseed + draws: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRNGSeed measures what a per-flow stream costs: seeding plus
// the four draws a short Poisson window typically takes, against
// math/rand's eager seeding.
func BenchmarkRNGSeed(b *testing.B) {
	b.Run("NewRNG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := NewRNG(int64(i))
			for k := 0; k < 4; k++ {
				g.Float64()
			}
		}
	})
	b.Run("Reseed", func(b *testing.B) {
		g := NewRNG(0)
		for i := 0; i < b.N; i++ {
			g.Reseed(int64(i))
			for k := 0; k < 4; k++ {
				g.Float64()
			}
		}
	})
	b.Run("MathRand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 4; k++ {
				r.Float64()
			}
		}
	})
}

// BenchmarkRNGDraw measures the steady-state draw, where the source's
// lazy-seeding check must cost nothing measurable.
func BenchmarkRNGDraw(b *testing.B) {
	b.Run("RNG", func(b *testing.B) {
		g := NewRNG(1)
		for i := 0; i < b.N; i++ {
			g.Float64()
		}
	})
	b.Run("MathRand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Float64()
		}
	})
}
