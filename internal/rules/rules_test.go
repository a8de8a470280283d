package rules

import (
	"errors"
	"testing"
	"testing/quick"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// fig2b builds the rule set of the paper's Figure 2b: rule1 covers f1,
// rule2 covers {f1, f2}, rule1 > rule2.
func fig2b(t *testing.T) *Set {
	t.Helper()
	s, err := NewSet([]Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 2, Timeout: 5},
		{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fig2c builds Figure 2c: rule1 covers {f1, f2}, rule2 covers {f1, f3},
// rule1 > rule2.
func fig2c(t *testing.T) *Set {
	t.Helper()
	s, err := NewSet([]Rule{
		{Name: "rule1", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 5},
		{Name: "rule2", Cover: flows.SetOf(0, 2), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSetValidation(t *testing.T) {
	_, err := NewSet([]Rule{
		{Cover: flows.SetOf(0), Priority: 1, Timeout: 5},
		{Cover: flows.SetOf(0), Priority: 1, Timeout: 5},
	})
	if !errors.Is(err, ErrDuplicatePriority) {
		t.Fatalf("overlap with equal priority: err = %v", err)
	}
	// Disjoint rules may share a priority.
	if _, err := NewSet([]Rule{
		{Cover: flows.SetOf(0), Priority: 1, Timeout: 5},
		{Cover: flows.SetOf(1), Priority: 1, Timeout: 5},
	}); err != nil {
		t.Fatalf("disjoint equal priority: err = %v", err)
	}
	if _, err := NewSet([]Rule{{Cover: flows.SetOf(0), Priority: 1, Timeout: 0}}); !errors.Is(err, ErrBadTimeout) {
		t.Fatalf("zero timeout: err = %v", err)
	}
	if _, err := NewSet([]Rule{{Cover: flows.NewSet(4), Priority: 1, Timeout: 3}}); !errors.Is(err, ErrEmptyCover) {
		t.Fatalf("empty cover: err = %v", err)
	}
}

func TestNewSetDefaultsKindAndIDs(t *testing.T) {
	s, err := NewSet([]Rule{
		{ID: 99, Cover: flows.SetOf(0), Priority: 1, Timeout: 5},
		{ID: 99, Cover: flows.SetOf(1), Priority: 2, Timeout: 5, Kind: HardTimeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rule(0).ID != 0 || s.Rule(1).ID != 1 {
		t.Fatal("IDs not reassigned")
	}
	if s.Rule(0).Kind != IdleTimeout || s.Rule(1).Kind != HardTimeout {
		t.Fatal("timeout kinds wrong")
	}
}

func TestHighestCovering(t *testing.T) {
	s := fig2b(t)
	if id, ok := s.HighestCovering(0); !ok || id != 0 {
		t.Fatalf("f1 → rule %d, %v", id, ok)
	}
	if id, ok := s.HighestCovering(1); !ok || id != 1 {
		t.Fatalf("f2 → rule %d, %v", id, ok)
	}
	if _, ok := s.HighestCovering(9); ok {
		t.Fatal("uncovered flow matched")
	}
}

func TestCoveringOrder(t *testing.T) {
	s := fig2b(t)
	cov := s.Covering(0)
	if len(cov) != 2 || cov[0] != 0 || cov[1] != 1 {
		t.Fatalf("covering(f1) = %v", cov)
	}
}

func TestMatchIn(t *testing.T) {
	s := fig2b(t)
	cachedOnly1 := func(id int) bool { return id == 1 }
	if id, ok := s.MatchIn(0, cachedOnly1); !ok || id != 1 {
		t.Fatalf("match f1 with only rule2 cached → %d, %v", id, ok)
	}
	none := func(int) bool { return false }
	if _, ok := s.MatchIn(0, none); ok {
		t.Fatal("match in empty cache")
	}
}

func TestHigherPriority(t *testing.T) {
	s := fig2b(t)
	if !s.HigherPriority(0, 1) || s.HigherPriority(1, 0) {
		t.Fatal("priority order wrong")
	}
}

func TestCoveredFlows(t *testing.T) {
	s := fig2c(t)
	if cf := s.CoveredFlows(); !cf.Equal(flows.SetOf(0, 1, 2)) {
		t.Fatalf("covered = %v", cf)
	}
}

func TestNumCovering(t *testing.T) {
	s := fig2c(t)
	if NumCovering(s, 0) != 2 || NumCovering(s, 1) != 1 || NumCovering(s, 9) != 0 {
		t.Fatal("NumCovering wrong")
	}
}

func TestAllTernaryMasks(t *testing.T) {
	masks := AllTernaryMasks(4)
	if len(masks) != 81 {
		t.Fatalf("got %d masks, paper says 81", len(masks))
	}
	seen := map[string]bool{}
	for _, m := range masks {
		s := m.String()
		if seen[s] {
			t.Fatalf("duplicate mask %s", s)
		}
		seen[s] = true
		if len(s) != 4 {
			t.Fatalf("mask string %q", s)
		}
	}
}

func TestTernaryMaskCover(t *testing.T) {
	m := TernaryMask{Bits: 4, Value: 0b1000, Care: 0b1000} // "1***"
	cover := m.CoverOf(16)
	if cover.Len() != 8 {
		t.Fatalf("1*** covers %d hosts", cover.Len())
	}
	for h := 8; h < 16; h++ {
		if !cover.Contains(flows.ID(h)) {
			t.Fatalf("1*** misses host %d", h)
		}
	}
	full := TernaryMask{Bits: 4} // "****"
	if full.CoverOf(16).Len() != 16 {
		t.Fatal("**** should cover all")
	}
	exact := TernaryMask{Bits: 4, Value: 5, Care: 0xF}
	if c := exact.CoverOf(16); c.Len() != 1 || !c.Contains(5) {
		t.Fatalf("0101 covers %v", c)
	}
}

func TestTernaryMaskCoverSizesPowerOfTwo(t *testing.T) {
	f := func(value, care uint8) bool {
		m := TernaryMask{Bits: 4, Value: uint32(value & 0xF), Care: uint32(care & 0xF)}
		n := m.CoverOf(16).Len()
		// Cover size = 2^(#wildcard bits).
		wild := 0
		for i := 0; i < 4; i++ {
			if m.Care&(1<<uint(i)) == 0 {
				wild++
			}
		}
		return n == 1<<uint(wild)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGenerateConfig(t *testing.T) {
	cfg := DefaultGenerateConfig(0.1)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if len(cfg.Timeouts) != 10 {
		t.Fatalf("timeouts = %v", cfg.Timeouts)
	}
	for i := range want {
		if cfg.Timeouts[i] != want[i] {
			t.Fatalf("timeouts = %v, want %v", cfg.Timeouts, want)
		}
	}
	if cfg.NumFlows != 16 || cfg.NumRules != 12 || cfg.MaskBits != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestGenerate(t *testing.T) {
	rng := stats.NewRNG(1)
	cfg := DefaultGenerateConfig(0.1)
	s, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 12 {
		t.Fatalf("len = %d", s.Len())
	}
	prios := map[int]bool{}
	for _, r := range s.Rules() {
		if r.Cover.Empty() {
			t.Fatalf("empty cover: %s", r)
		}
		if prios[r.Priority] {
			t.Fatalf("duplicate priority %d", r.Priority)
		}
		prios[r.Priority] = true
		if r.Timeout < 1 || r.Timeout > 10 {
			t.Fatalf("timeout out of range: %s", r)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenerateConfig(0.1)
	a, err := Generate(cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Rule(i), b.Rule(i)
		if ra.Name != rb.Name || ra.Priority != rb.Priority || ra.Timeout != rb.Timeout {
			t.Fatalf("rule %d differs: %s vs %s", i, ra, rb)
		}
	}
}

func TestGenerateTooManyRules(t *testing.T) {
	cfg := DefaultGenerateConfig(0.1)
	cfg.NumRules = 100 // only 81 masks exist
	if _, err := Generate(cfg, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for too many rules")
	}
	cfg.NumRules = 12
	cfg.Timeouts = nil
	if _, err := Generate(cfg, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for no timeouts")
	}
}

func TestTimeoutKindString(t *testing.T) {
	if IdleTimeout.String() != "idle" || HardTimeout.String() != "hard" {
		t.Fatal("kind names")
	}
	if TimeoutKind(9).String() == "" {
		t.Fatal("unknown kind name empty")
	}
}
