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

	ResetUSumMemo()
	serial, err := newCompactModelWorkers(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ResetUSumMemo()
	parallel, err := newCompactModelWorkers(cfg, 8)
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

// TestParallelBuildMemoShared verifies the build memoizes u-sum estimates
// across the conditioned chain pair: building M then M₀ must hit the
// memo rather than resample, and a memoized rebuild must reproduce the
// cold matrix exactly.
func TestMemoizedRebuildBitIdentical(t *testing.T) {
	cfg := parallelTestConfig(t)

	ResetUSumMemo()
	cold, err := NewCompactModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if USumMemoLen() == 0 {
		t.Fatal("cold build left the u-sum memo empty")
	}
	warm, err := NewCompactModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cold.NumStates(); i++ {
		_, psC := cold.Matrix().Row(i)
		_, psW := warm.Matrix().Row(i)
		for k := range psC {
			if psC[k] != psW[k] {
				t.Fatalf("state %d entry %d: warm rebuild diverged: %v vs %v", i, k, psC[k], psW[k])
			}
		}
	}
}
