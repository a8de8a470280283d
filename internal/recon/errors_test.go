package recon

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"flowrecon/internal/flows"
)

// TestInferCapacityNeverOverflows: against a table whose capacity exceeds
// every fill round (here: larger than the whole candidate pool), the
// re-probe always hits, no round ever evicts, and the inference must
// report failure explicitly — never fabricate a capacity.
func TestInferCapacityNeverOverflows(t *testing.T) {
	const maxCap = 5
	need := 0
	for k := 1; k <= maxCap+1; k++ {
		need += k
	}
	p := microflowProber(t, need, need+10, 1000) // capacity can hold every candidate
	candidates := make([]flows.ID, need)
	for i := range candidates {
		candidates[i] = flows.ID(i)
	}
	got, err := InferCapacity(p, candidates, maxCap, 0, 0.001)
	if err == nil {
		t.Fatalf("never-overflowing table yielded capacity %d, want error", got)
	}
	if got != 0 {
		t.Fatalf("failed inference returned capacity %d, want 0", got)
	}
	if !strings.Contains(err.Error(), "maxCap") {
		t.Fatalf("error does not name the exceeded bound: %v", err)
	}
}

// errProber fails after a fixed number of successful probes, modeling a
// transport that dies mid-measurement.
type errProber struct {
	inner Prober
	left  int
	err   error
}

func (p *errProber) Probe(f flows.ID, now float64) (bool, error) {
	if p.left <= 0 {
		return false, p.err
	}
	p.left--
	return p.inner.Probe(f, now)
}

// TestProberErrorsPropagate: a probe failure at any point — during a
// capacity fill round, the idle-timeout prime, mid-grid, or inside the
// coverage matrix — surfaces as that error, wrapped or verbatim, never as
// a fabricated measurement.
func TestProberErrorsPropagate(t *testing.T) {
	boom := errors.New("transport died")
	fresh := func(after int) *errProber {
		return &errProber{inner: microflowProber(t, 30, 4, 1000), left: after, err: boom}
	}
	candidates := make([]flows.ID, 30)
	for i := range candidates {
		candidates[i] = flows.ID(i)
	}
	for _, after := range []int{0, 1, 3} {
		if _, err := InferCapacity(fresh(after), candidates, 4, 0, 0.001); !errors.Is(err, boom) {
			t.Errorf("InferCapacity after %d probes: err = %v, want %v", after, err, boom)
		}
		if _, _, err := InferIdleTimeout(fresh(after), 0, []float64{1, 2, 4}, 0); !errors.Is(err, boom) {
			t.Errorf("InferIdleTimeout after %d probes: err = %v, want %v", after, err, boom)
		}
	}
}

// contendingProber wraps a prober and injects a competitor flow right
// before a chosen probe call — background traffic landing between the
// attacker's probe pair.
type contendingProber struct {
	inner      Prober
	competitor flows.ID
	before     int // inject before the n-th Probe call (0-based)
	calls      int
}

func (p *contendingProber) Probe(f flows.ID, now float64) (bool, error) {
	if p.calls == p.before {
		if _, err := p.inner.Probe(p.competitor, now); err != nil {
			return false, fmt.Errorf("inject competitor: %w", err)
		}
	}
	p.calls++
	return p.inner.Probe(f, now)
}

// TestInferIdleTimeoutStraddlesEviction documents the known failure mode
// of the TTL bracketing when the table is contended: if background traffic
// evicts the probed rule between a probe pair, the follow-up miss is
// indistinguishable from a timeout expiry, and the bracket collapses onto
// the contended gap — far below the true TTL. The function must still
// return a well-formed bracket (lo < hi, no error, no hang); the §III-C
// quiet-channel assumption, not the code, is what rules the aliasing out.
func TestInferIdleTimeoutStraddlesEviction(t *testing.T) {
	// Capacity-1 table, TTL 1000 s: the rule can only leave by eviction.
	base := microflowProber(t, 2, 1, 1000)
	// Probe calls: 0 = prime(f0), 1 = gap 2, 2 = gap 5, 3 = gap 9.
	// The competitor lands just before call 2, evicting f0's rule.
	p := &contendingProber{inner: base, competitor: 1, before: 2}
	lo, hi, err := InferIdleTimeout(p, 0, []float64{2, 5, 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 2 || hi != 5 {
		t.Fatalf("bracket = (%v, %v], want the aliased (2, 5]", lo, hi)
	}
	if hi >= 1000 {
		t.Fatalf("test lost its point: bracket reached the true TTL")
	}

	// Same scenario without contention: the bracket correctly stays open
	// at the end of the grid (no expiry observed).
	clean := microflowProber(t, 2, 1, 1000)
	lo, hi, err = InferIdleTimeout(clean, 0, []float64{2, 5, 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 9 || hi != 9 {
		t.Fatalf("uncontended bracket = (%v, %v], want open (9, 9]", lo, hi)
	}

	// Contention during the prime itself: the prime installs, the
	// competitor evicts, the first gap probe misses → bracket (0, g₀].
	primed := &contendingProber{inner: microflowProber(t, 2, 1, 1000), competitor: 1, before: 1}
	lo, hi, err = InferIdleTimeout(primed, 0, []float64{2, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 2 {
		t.Fatalf("evicted-prime bracket = (%v, %v], want (0, 2]", lo, hi)
	}
}
