package rules

import (
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// randomCached draws a random cached-rule predicate over a rule set,
// including the empty and full cache corner cases.
func randomCached(rs *Set, rng *stats.RNG) []bool {
	cached := make([]bool, rs.Len())
	switch rng.Intn(8) {
	case 0: // empty table
	case 1: // full table
		for i := range cached {
			cached[i] = true
		}
	default:
		p := rng.Float64()
		for i := range cached {
			cached[i] = rng.Bernoulli(p)
		}
	}
	return cached
}

// checkMatchAgreement asserts the indexed matcher agrees with the linear
// reference on every flow in (and just beyond) the universe.
func checkMatchAgreement(t *testing.T, rs *Set, cached []bool, nflows int) {
	t.Helper()
	pred := func(j int) bool { return cached[j] }
	for f := flows.ID(-1); int(f) < nflows+3; f++ {
		gotID, gotOK := rs.MatchIn(f, pred)
		wantID, wantOK := rs.MatchInLinear(f, pred)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("flow %d: MatchIn = (%d, %v), linear reference = (%d, %v); cached=%v",
				f, gotID, gotOK, wantID, wantOK, cached)
		}
		// The derived accessors must be consistent with the same index.
		full := func(int) bool { return true }
		hcID, hcOK := rs.HighestCovering(f)
		linID, linOK := rs.MatchInLinear(f, full)
		if hcID != linID || hcOK != linOK {
			t.Fatalf("flow %d: HighestCovering = (%d, %v), want (%d, %v)", f, hcID, hcOK, linID, linOK)
		}
	}
}

// TestMatchInDifferentialGenerated is the differential/property test of
// the tentpole's match index: over many randomized rule sets drawn the
// way the paper's evaluation draws them (overlapping ternary wildcards
// from generate.go) and randomized cached sets, the indexed MatchIn must
// equal the linear-scan reference on every flow.
func TestMatchInDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := stats.NewRNG(seed)
		cfg := GenerateConfig{
			NumFlows: 16,
			NumRules: 1 + rng.Intn(24),
			MaskBits: 4,
			Timeouts: []int{1, 2, 5, 9},
		}
		if seed%3 == 0 {
			cfg.HardRatio = 0.3
		}
		rs, err := Generate(cfg, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for trial := 0; trial < 8; trial++ {
			checkMatchAgreement(t, rs, randomCached(rs, rng), cfg.NumFlows)
		}
	}
}

// TestMatchInDifferentialSparseUniverse covers rule sets whose covers
// leave gaps in the flow space (the index must not confuse "flow beyond
// the index" with "flow with no covering rule").
func TestMatchInDifferentialSparseUniverse(t *testing.T) {
	rs, err := NewSet([]Rule{
		{Name: "lo", Cover: flows.SetOf(0, 2), Priority: 3, Timeout: 2},
		{Name: "mid", Cover: flows.SetOf(2, 64), Priority: 2, Timeout: 2},
		{Name: "hi", Cover: flows.SetOf(130), Priority: 1, Timeout: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 16; trial++ {
		checkMatchAgreement(t, rs, randomCached(rs, rng), 140)
	}
}

// TestCoveringMatchesLinearEnumeration checks the other index consumer:
// Covering must return exactly the linear enumeration, in descending
// priority order.
func TestCoveringMatchesLinearEnumeration(t *testing.T) {
	rng := stats.NewRNG(9)
	rs, err := Generate(GenerateConfig{NumFlows: 16, NumRules: 12, MaskBits: 4, Timeouts: []int{3}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for f := flows.ID(0); f < 16; f++ {
		got := rs.Covering(f)
		var want []int
		for _, id := range rs.ByPriority() {
			if rs.Rule(id).Cover.Contains(f) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("flow %d: Covering = %v, want %v", f, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("flow %d: Covering = %v, want %v", f, got, want)
			}
		}
	}
}

// FuzzMatchInDifferential fuzzes the indexed-vs-linear equivalence. The
// corpus is seeded from the §VI-A universe: 16 flows, up to 4 wildcard
// bits — the full 81-rule candidate space at nrules=81.
func FuzzMatchInDifferential(f *testing.F) {
	f.Add(int64(1), uint8(81), uint16(0), []byte{0xff, 0x00, 0xaa})
	f.Add(int64(2), uint8(12), uint16(3), []byte{0x0f})
	f.Add(int64(3), uint8(1), uint16(1000), []byte{})
	f.Add(int64(4), uint8(40), uint16(15), []byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55})
	f.Fuzz(func(t *testing.T, seed int64, nrules uint8, flow uint16, cachedBits []byte) {
		rng := stats.NewRNG(seed)
		cfg := GenerateConfig{
			NumFlows: 16,
			NumRules: 1 + int(nrules)%81,
			MaskBits: 4,
			Timeouts: []int{1, 4, 7},
		}
		rs, err := Generate(cfg, rng)
		if err != nil {
			t.Skip() // fewer non-empty masks than requested rules
		}
		cached := func(j int) bool {
			if j/8 >= len(cachedBits) {
				return false
			}
			return cachedBits[j/8]&(1<<uint(j%8)) != 0
		}
		probe := []flows.ID{flows.ID(int(flow) % 24), flows.ID(flow)}
		for _, fl := range probe {
			gotID, gotOK := rs.MatchIn(fl, cached)
			wantID, wantOK := rs.MatchInLinear(fl, cached)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("flow %d: MatchIn = (%d, %v), linear = (%d, %v)", fl, gotID, gotOK, wantID, wantOK)
			}
		}
	})
}

// MatchInLinear is the straightforward O(|Rules|) matcher: walk the full
// priority order and return the first cached rule covering f. It is the
// executable specification of MatchIn — the differential and fuzz tests
// assert the two agree on arbitrary rule sets and cache contents.
func (s *Set) MatchInLinear(f flows.ID, cached func(ruleID int) bool) (int, bool) {
	for _, id := range s.byPriority {
		if cached(id) && s.rules[id].Cover.Contains(f) {
			return id, true
		}
	}
	return 0, false
}
