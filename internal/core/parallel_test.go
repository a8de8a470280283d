package core

import (
	"testing"

	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// parallelTestConfig is a paper-shaped configuration (16 flows, 12 rules,
// cache 5): 1,586 states whose u-sums the build workers sweep
// concurrently.
func parallelTestConfig(t *testing.T) Config {
	t.Helper()
	rng := stats.NewRNG(7)
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Rules:     rs,
		Rates:     workload.UniformRates(16, rng),
		Delta:     0.025,
		CacheSize: 5,
	}
	return cfg
}

// TestParallelBuildBitIdentical builds the same compact model serially
// and with a worker pool and requires the transition matrices to agree
// to the last bit: every state's estimates are a pure function of the
// state, not of evaluation order, so worker scheduling must not leak
// into the numbers.
func TestParallelBuildBitIdentical(t *testing.T) {
	cfg := parallelTestConfig(t)

	serial, err := newCompactModelWorkers(cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := newCompactModelWorkers(cfg, nil, 8)
	if err != nil {
		t.Fatal(err)
	}

	if serial.NumStates() != parallel.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", serial.NumStates(), parallel.NumStates())
	}
	for i := 0; i < serial.NumStates(); i++ {
		if serial.StateMask(i) != parallel.StateMask(i) {
			t.Fatalf("state %d mask differs: %x vs %x", i, serial.StateMask(i), parallel.StateMask(i))
		}
		tosS, psS := serial.Matrix().Row(i)
		tosP, psP := parallel.Matrix().Row(i)
		if len(tosS) != len(tosP) {
			t.Fatalf("state %d row length differs: %d vs %d", i, len(tosS), len(tosP))
		}
		for k := range tosS {
			if tosS[k] != tosP[k] {
				t.Fatalf("state %d entry %d destination differs: %d vs %d", i, k, tosS[k], tosP[k])
			}
			if psS[k] != psP[k] { // exact: 0 ulp
				t.Fatalf("state %d entry %d probability differs: %v vs %v", i, k, psS[k], psP[k])
			}
		}
	}
}

// TestMemoizedRebuildBitIdentical: a build over an empty memo fills it,
// and both that build and a rebuild answered from the memo reproduce the
// matrix and the estimates of a build without a memo exactly; the
// rebuild's estimates are the memoized vector itself.
func TestMemoizedRebuildBitIdentical(t *testing.T) {
	cfg := parallelTestConfig(t)

	plain, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilds(nil, true)
	cold, err := NewCompactModel(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.memo.m) == 0 {
		t.Fatal("cold build left the u-sum memo empty")
	}
	warm, err := NewCompactModel(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if &warm.est[0] != &cold.est[0] {
		t.Fatal("rebuild did not take the memoized estimate vector")
	}
	for name, m := range map[string]*CompactModel{"cold": cold, "warm": warm} {
		for i := 0; i < plain.NumStates(); i++ {
			_, want := plain.Matrix().Row(i)
			_, got := m.Matrix().Row(i)
			if !sameBitsSlice(got, want) {
				t.Fatalf("%s memoized build, state %d: %v, without memo %v", name, i, got, want)
			}
			if !sameEstimates(m.Estimates(i), plain.Estimates(i)) {
				t.Fatalf("%s memoized build, state %d: estimates %+v, without memo %+v", name, i, m.Estimates(i), plain.Estimates(i))
			}
		}
	}
}
