// Package stats provides the random-number, distribution, and summary
// machinery shared by the workload generators, the Markov models, and the
// evaluation harness.
//
// Everything is explicitly seeded: given the same seed, every consumer in
// this repository produces byte-identical results, which keeps the
// reproduction of the paper's experiments deterministic.
//
// Compatibility contract: an RNG seeded with s produces exactly the
// streams of math/rand's rand.New(rand.NewSource(s)) — every Int63,
// Float64, ExpFloat64, NormFloat64, Intn, Perm and Shuffle draw, bit for
// bit. The distribution layer is math/rand's own rand.Rand; only the
// source underneath is replaced, by one that seeds lazily (see
// lfgSource). Golden fixtures and recordings made against math/rand
// therefore stay valid, and TestRNGMatchesMathRand holds the source to
// math/rand.NewSource as the reference.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of randomness. It wraps math/rand.Rand so that all
// randomness in the repository flows through one audited type and no package
// touches the global math/rand state.
//
// The generator state lives inline (~4.9 KiB), so an RNG is one
// allocation, and Reseed restarts it in place without allocating. The
// zero RNG must be Reseeded before use, and an RNG must not be copied
// once seeded: its rand.Rand points at its own source.
type RNG struct {
	_ noCopy
	// r holds the only pointers; declared first, it keeps the garbage
	// collector's scan of an RNG to its first few words.
	r   rand.Rand
	src lfgSource
}

// noCopy lets go vet's copylocks check flag an RNG copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.Reseed(seed)
	return g
}

// Reseed restarts g as NewRNG(seed) would, in place and without
// allocating. Seeding is lazy, so a stream that draws only a few values
// costs only those values.
func (g *RNG) Reseed(seed int64) {
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
}

// Fork derives an independent RNG from r. The derived stream is a pure
// function of r's current state, so forking is itself deterministic.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It is the inter-arrival time of a Poisson process.
func (g *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return g.r.ExpFloat64() / rate
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	return g.r.Float64() < p
}

// Pareto returns a Pareto(α, xm) sample via inversion: xm·U^(−1/α). The
// tail index α controls heavy-tailedness (finite mean requires α > 1,
// finite variance α > 2); xm is the scale (minimum value).
func (g *RNG) Pareto(alpha, xm float64) float64 {
	// 1−Float64() lies in (0, 1], keeping the power finite.
	return xm * math.Pow(1-g.r.Float64(), -1/alpha)
}

// LogNormal returns exp(N(mu, sigma)) — a log-normal sample with median
// e^mu and mean e^{mu+sigma²/2}.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Poisson returns a Poisson-distributed sample with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation is more than adequate for the rates used
		// in this repository and avoids O(mean) work.
		n := int(math.Round(g.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := -1
	for p > limit {
		p *= g.r.Float64()
		n++
	}
	return n
}

// PickDistinct returns k distinct uniform indices in [0, n). It panics if
// k > n, which is always a programming error at call sites.
func (g *RNG) PickDistinct(k, n int) []int {
	if k > n {
		panic("stats: PickDistinct k > n")
	}
	perm := g.r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
