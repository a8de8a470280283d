package defense

import (
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// fig2cConfig: the paper's Figure 2c structure, which leaks strongly
// about f1 (probe f2 certifies rule1).
func fig2cConfig(t *testing.T) core.Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 6},
		{Name: "rule2", Cover: flows.SetOf(0, 2), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Rules:     rs,
		Rates:     []float64{0.07, 0.02, 1.2},
		Delta:     0.25,
		CacheSize: 2,
	}
}

// covers reports whether every flow of sub is in s.
func covers(s, sub flows.Set) bool { return s.Union(sub).Equal(s) }

func TestMeasureLeakage(t *testing.T) {
	cfg := fig2cConfig(t)
	prof, err := MeasureLeakage(cfg, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.PerFlow) != 3 {
		t.Fatalf("profiled %d flows", len(prof.PerFlow))
	}
	if prof.MaxGain <= 0 {
		t.Fatal("structure reported as leak-free")
	}
	if prof.MeanGain > prof.MaxGain {
		t.Fatal("mean exceeds max")
	}
	for _, fl := range prof.PerFlow {
		if fl.Gain < 0 || fl.Gain > fl.PriorEntropy+1e-9 {
			t.Fatalf("flow %d: gain %v outside [0, H=%v]", fl.Target, fl.Gain, fl.PriorEntropy)
		}
	}
	ranked := prof.RankTargets()
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Gain > ranked[i-1].Gain {
			t.Fatal("ranking not descending")
		}
	}
}

func TestMergeRules(t *testing.T) {
	cfg := fig2cConfig(t)
	merged, err := MergeRules(cfg.Rules, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 1 {
		t.Fatalf("len = %d", merged.Len())
	}
	r := merged.Rule(0)
	if !r.Cover.Equal(flows.SetOf(0, 1, 2)) {
		t.Fatalf("merged cover = %v", r.Cover)
	}
	if r.Priority != 2 || r.Timeout != 6 {
		t.Fatalf("merged rule = %+v", r)
	}
	// Coverage must be preserved: every previously covered flow stays
	// covered.
	if !covers(merged.CoveredFlows(), cfg.Rules.CoveredFlows()) {
		t.Fatal("merge lost coverage")
	}
}

func TestMergeRulesRejectsBadPairs(t *testing.T) {
	cfg := fig2cConfig(t)
	if _, err := MergeRules(cfg.Rules, 0, 0); err == nil {
		t.Fatal("self-merge accepted")
	}
	if _, err := MergeRules(cfg.Rules, 0, 9); err == nil {
		t.Fatal("out-of-range merge accepted")
	}
}

func TestMergeReducesLeakage(t *testing.T) {
	// The §VII-B3 claim on Figure 2c: collapsing the two overlapping
	// rules into one coarse rule removes the certificate probe, so the
	// attacker's best gain about f1 must drop.
	cfg := fig2cConfig(t)
	before, err := MeasureLeakage(cfg, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeRules(cfg.Rules, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := cfg
	after.Rules = merged
	profAfter, err := MeasureLeakage(after, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if profAfter.MaxGain >= before.MaxGain {
		t.Fatalf("merge did not reduce leakage: %v → %v", before.MaxGain, profAfter.MaxGain)
	}
}

func TestMergeCandidates(t *testing.T) {
	cfg := fig2cConfig(t)
	cands := MergeCandidates(cfg.Rules)
	if len(cands) != 1 || cands[0] != [2]int{0, 1} {
		t.Fatalf("candidates = %v", cands)
	}
	// Disjoint rules with adjacent priorities are still candidates.
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 2, Timeout: 3},
		{Cover: flows.SetOf(1), Priority: 1, Timeout: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := MergeCandidates(rs); len(got) != 1 {
		t.Fatalf("adjacent-priority candidates = %v", got)
	}
}

func TestCoarsen(t *testing.T) {
	cfg := fig2cConfig(t)
	before, err := MeasureLeakage(cfg, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Coarsen(cfg, before, 40, 1, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no coarsening step accepted on a leaky structure")
	}
	last := steps[len(steps)-1]
	if last.Profile.MaxGain >= before.MaxGain {
		t.Fatalf("coarsening did not reduce leakage: %v → %v", before.MaxGain, last.Profile.MaxGain)
	}
	// Behaviour preservation: coverage never shrinks.
	if !covers(last.Rules.CoveredFlows(), cfg.Rules.CoveredFlows()) {
		t.Fatal("coarsening lost coverage")
	}
	// The candidate profiles are the same at any worker count, so the
	// greedy walk is too.
	parallel, err := Coarsen(cfg, before, 40, 4, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(steps) {
		t.Fatalf("4 workers took %d steps, 1 worker %d", len(parallel), len(steps))
	}
	for i := range steps {
		a, b := steps[i], parallel[i]
		if a.MergedA != b.MergedA || a.MergedB != b.MergedB || a.Profile.MaxGain != b.Profile.MaxGain || a.Profile.MeanGain != b.Profile.MeanGain {
			t.Fatalf("step %d differs: (%d,%d %v) vs (%d,%d %v)", i, a.MergedA, a.MergedB, a.Profile.MaxGain, b.MergedA, b.MergedB, b.Profile.MaxGain)
		}
	}
}

func TestCoarsenAlreadyTight(t *testing.T) {
	cfg := fig2cConfig(t)
	before, err := MeasureLeakage(cfg, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With an absurdly generous leakage target no merge is needed.
	steps, err := Coarsen(cfg, before, 40, 1, 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("unnecessary merges: %d", len(steps))
	}
}

func TestMeasureLeakageRejectsBadConfig(t *testing.T) {
	if _, err := MeasureLeakage(core.Config{}, 10, 1, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestMeasureLeakageWorkersIdentical: the parallel profiler must return
// exactly the serial profile — targets are independent and assembled in
// flow order.
func TestMeasureLeakageWorkersIdentical(t *testing.T) {
	cfg := fig2cConfig(t)
	serial, err := MeasureLeakage(cfg, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MeasureLeakage(cfg, 40, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.PerFlow) != len(parallel.PerFlow) {
		t.Fatalf("profile lengths differ: %d vs %d", len(serial.PerFlow), len(parallel.PerFlow))
	}
	for i := range serial.PerFlow {
		if serial.PerFlow[i] != parallel.PerFlow[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, serial.PerFlow[i], parallel.PerFlow[i])
		}
	}
	if serial.MaxGain != parallel.MaxGain || serial.MeanGain != parallel.MeanGain {
		t.Fatalf("aggregates differ: (%v,%v) vs (%v,%v)", serial.MaxGain, serial.MeanGain, parallel.MaxGain, parallel.MeanGain)
	}
}
