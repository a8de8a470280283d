package recon

import (
	"fmt"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
)

// microflowProber builds a TableProber over nflows microflow rules (one
// rule per flow, equal TTLs) and a table of the given capacity.
func microflowProber(t *testing.T, nflows, capacity, ttlSteps int) *TableProber {
	t.Helper()
	rl := make([]rules.Rule, nflows)
	for i := range rl {
		rl[i] = rules.Rule{
			Name:     fmt.Sprintf("micro%d", i),
			Cover:    flows.SetOf(flows.ID(i)),
			Priority: i + 1,
			Timeout:  ttlSteps,
		}
	}
	rs, err := rules.NewSet(rl)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := flowtable.New(rs, capacity, 1) // 1 s per step
	if err != nil {
		t.Fatal(err)
	}
	return &TableProber{Table: tbl}
}

func TestTableProberSemantics(t *testing.T) {
	p := microflowProber(t, 4, 2, 10)
	hit, err := p.Probe(0, 0)
	if err != nil || hit {
		t.Fatalf("first probe: hit=%v err=%v", hit, err)
	}
	hit, err = p.Probe(0, 1)
	if err != nil || !hit {
		t.Fatalf("second probe: hit=%v err=%v", hit, err)
	}
}

func TestInferCapacity(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 8} {
		// Enough candidates for rounds up to maxCap+1.
		need := 0
		maxCap := 10
		for k := 1; k <= maxCap+1; k++ {
			need += k
		}
		p := microflowProber(t, need, capacity, 1000)
		candidates := make([]flows.ID, need)
		for i := range candidates {
			candidates[i] = flows.ID(i)
		}
		got, err := InferCapacity(p, candidates, maxCap, 0, 0.001)
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if got != capacity {
			t.Errorf("capacity %d inferred as %d", capacity, got)
		}
	}
}

func TestInferCapacityErrors(t *testing.T) {
	p := microflowProber(t, 4, 2, 1000)
	if _, err := InferCapacity(p, []flows.ID{0, 1, 2, 3}, 0, 0, 0.001); err == nil {
		t.Fatal("maxCap 0 accepted")
	}
	if _, err := InferCapacity(p, []flows.ID{0, 1}, 5, 0, 0.001); err == nil {
		t.Fatal("insufficient candidates accepted")
	}
	// Capacity above maxCap must be reported, not mis-inferred.
	big := microflowProber(t, 20, 19, 1000)
	candidates := make([]flows.ID, 20)
	for i := range candidates {
		candidates[i] = flows.ID(i)
	}
	if _, err := InferCapacity(big, candidates, 3, 0, 0.001); err == nil {
		t.Fatal("capacity beyond maxCap not flagged")
	}
}

func TestInferIdleTimeout(t *testing.T) {
	// TTL = 10 steps × 1 s = 10 s.
	p := microflowProber(t, 2, 2, 10)
	lo, hi, err := InferIdleTimeout(p, 0, []float64{2, 5, 9, 11, 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 10 && 10 <= hi) {
		t.Fatalf("TTL bracket (%v, %v] misses the true 10 s", lo, hi)
	}
	if lo != 9 || hi != 11 {
		t.Fatalf("bracket = (%v, %v], want (9, 11]", lo, hi)
	}
}

func TestInferIdleTimeoutNoExpiry(t *testing.T) {
	p := microflowProber(t, 2, 2, 1000) // 1000 s TTL, grid ends at 20 s
	lo, hi, err := InferIdleTimeout(p, 0, []float64{5, 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 20 || hi != 20 {
		t.Fatalf("open bracket = (%v, %v], want (20, 20] (no expiry observed)", lo, hi)
	}
}

func TestInferIdleTimeoutErrors(t *testing.T) {
	p := microflowProber(t, 2, 2, 10)
	if _, _, err := InferIdleTimeout(p, 0, nil, 0); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, _, err := InferIdleTimeout(p, 0, []float64{-1}, 0); err == nil {
		t.Fatal("negative gap accepted")
	}
}
