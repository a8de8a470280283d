package stats

// lfgSource reproduces math/rand's rand.NewSource generator bit for bit —
// the additive lagged-Fibonacci generator x[n] = x[n−273] + x[n−607]
// (mod 2⁶⁴) of Mitchell and Reeds — but seeds it lazily.
//
// math/rand seeds the 607 state words with a serial chain of 1,841
// Lehmer steps x ← 48271·x mod (2³¹−1), most of the cost of a new source
// (see BenchmarkRNGSeed), although most streams in this repository draw
// only a handful of values (one short Poisson arrival process per flow,
// a few fault decisions per trial). Step k of that chain is
// x₀·48271ᵏ mod (2³¹−1), so every state word is a closed form of the
// seed: three multiplies by precomputed powers, XORed with math/rand's
// rngCooked table. lfgSource computes each word when a draw first reads
// it.
//
// The generator reads its words in a fixed order, so a draw count alone
// says which words exist. During the first 334 draws (rngLen − rngTap)
// the feed position walks words 333 → 0, each read for the first time,
// and the tap position walks 606 → 273: a tap word ≥ 334 is read for the
// first time, and a tap word ≤ 333 was written as a feed word 273 draws
// earlier. After those 334 draws every word exists, and what remains of
// the laziness is one counter test per draw.
//
// Seeding therefore costs a few stores, and a stream costs only the words
// its draws reach. TestRNGMatchesMathRand and FuzzRNGMatchesMathRand hold
// it to math/rand.NewSource as the reference.
type lfgSource struct {
	tap, feed int
	seed      uint64 // normalized Lehmer seed x₀ in [1, 2³¹−1)
	lazy      int    // draws left before every state word exists
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// lehmerSkip is the number of Lehmer steps math/rand discards before
	// the first state word.
	lehmerSkip = 20
	// lehmerSeed0 replaces a seed ≡ 0, the Lehmer chain's fixed point.
	lehmerSeed0 = 89482311
)

// seedPow[i][j] = 48271^(lehmerSkip+1+3i+j) mod (2³¹−1): word i of a
// seeded state is built from Lehmer steps 21+3i, 22+3i and 23+3i.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < lehmerSkip; k++ {
		x = mulModM(x, lehmerA)
	}
	for i := range p {
		for j := range p[i] {
			x = mulModM(x, lehmerA)
			p[i][j] = x
		}
	}
	return p
}()

// mulModM returns a·b mod (2³¹−1) for a, b < 2³¹−1 by Mersenne reduction.
// The product of two nonzero residues is never ≡ 0 (the modulus is
// prime), so the result stays in [1, 2³¹−1), as math/rand's seedrand does.
func mulModM(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// Seed resets the source to math/rand's state for seed. It does no
// per-word work; the words materialize as draws reach them.
func (s *lfgSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = lehmerSeed0
	}
	s.seed = uint64(seed)
	s.lazy = rngLen - rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer: the low 63
// bits of the next generator word. lfgSource implements rand.Source but
// not rand.Source64, because RNG exposes no Uint64 and every rand.Rand
// method it calls draws through Int63.
func (s *lfgSource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		// Materialize the words this draw reads for the first time (see
		// the type comment): word i is math/rand's seeded vec[i]. Written
		// out rather than in a helper so Int63 stays a leaf function and
		// the steady-state draw pays for no call frame.
		s.lazy--
		x, p := s.seed, &seedPow[s.feed]
		s.vec[s.feed] = int64(mulModM(x, p[0]))<<40 ^ int64(mulModM(x, p[1]))<<20 ^ int64(mulModM(x, p[2])) ^ rngCooked[s.feed]
		if s.tap >= rngLen-rngTap {
			p = &seedPow[s.tap]
			s.vec[s.tap] = int64(mulModM(x, p[0]))<<40 ^ int64(mulModM(x, p[1]))<<20 ^ int64(mulModM(x, p[2])) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}
