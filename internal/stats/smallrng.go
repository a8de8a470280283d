package stats

import "math"

// SmallRNG is a value-embeddable deterministic generator for code that
// needs one independent random stream per simulated object (packet, rule,
// link) and cannot afford a heap-allocated RNG for each. An RNG carries
// ~4.9 KiB of lagged-Fibonacci state (607 words); SmallRNG is three
// words, copyable, and allocation-free, so a million in-flight packets
// can each carry their own stream.
//
// The core is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a counter
// plus a finalizing permutation. It passes BigCrush and — the property
// the sharded simulator depends on — a stream is a pure function of its
// seed, never of how many other streams exist or in what order they are
// drawn from. That is what keeps the fleet engine byte-identical at any
// shard count: every packet's delay draws come from its own seed.
type SmallRNG struct {
	state uint64
	// Box–Muller produces Gaussians in pairs; the spare is cached so
	// consecutive Normal calls cost one transcendental pair per two
	// samples, matching math/rand's amortized cost closely enough for
	// per-hop delay sampling.
	spare    float64
	hasSpare bool
}

// mix64 is the SplitMix64 finalizer, shared by seed derivation and the
// generator step.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 deterministically derives an independent substream seed from a
// base seed and a stream index. Adjacent indices decorrelate through the
// finalizer, so Mix64(s, 0), Mix64(s, 1), ... are independent streams —
// the same construction faults.Profile.SubSeed uses for trial substreams.
func Mix64(seed, stream int64) int64 {
	return int64(mix64(uint64(seed)+0x9e3779b97f4a7c15*uint64(stream)+0x8e9d5a1b7cb9e1d5) >> 1)
}

// NewSmallRNG returns a generator seeded with seed. Adjacent seeds yield
// decorrelated streams (the first output already passes through the
// finalizer).
func NewSmallRNG(seed int64) SmallRNG {
	return SmallRNG{state: uint64(seed)}
}

// Uint64 returns the next 64 pseudo-random bits.
func (g *SmallRNG) Uint64() uint64 {
	g.state += 0x9e3779b97f4a7c15
	return mix64(g.state)
}

// Float64 returns a uniform sample in [0, 1).
func (g *SmallRNG) Float64() float64 {
	return float64(g.Uint64()>>11) * 0x1p-53
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation (Box–Muller with a cached spare).
func (g *SmallRNG) Normal(mean, stddev float64) float64 {
	if g.hasSpare {
		g.hasSpare = false
		return mean + stddev*g.spare
	}
	// 1-Float64() is in (0, 1], keeping the log argument positive.
	r := math.Sqrt(-2 * math.Log(1-g.Float64()))
	s, c := math.Sincos(2 * math.Pi * g.Float64())
	g.spare, g.hasSpare = r*s, true
	return mean + stddev*r*c
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate), the inter-arrival time of a Poisson process.
func (g *SmallRNG) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return -math.Log(1-g.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (g *SmallRNG) Bernoulli(p float64) bool {
	return g.Float64() < p
}
