package core

import (
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// BenchmarkBasicModelBuild explores and assembles the exact §IV-A chain
// for a small configuration (the scale at which it is tractable at all).
func BenchmarkBasicModelBuild(b *testing.B) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 3, Timeout: 3},
		{Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 4},
		{Cover: flows.SetOf(2), Priority: 1, Timeout: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.8, 0.5, 0.9}, Delta: 0.2, CacheSize: 2}
	var states int
	for i := 0; i < b.N; i++ {
		m, err := NewBasicModel(cfg, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkAblationOrderedVsCanonical measures the state-space cost of the
// paper's ordered cache states against the behaviour-equivalent canonical
// (order-merged) variant.
func BenchmarkAblationOrderedVsCanonical(b *testing.B) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 3, Timeout: 4},
		{Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 5},
		{Cover: flows.SetOf(2), Priority: 1, Timeout: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Rules: rs, Rates: []float64{0.8, 0.5, 0.9}, Delta: 0.1, CacheSize: 2}
	b.Run("ordered", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			m, err := NewBasicModel(cfg, 1<<21)
			if err != nil {
				b.Fatal(err)
			}
			states = m.NumStates()
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("canonical", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			m, err := NewBasicModelCanonical(cfg, 1<<21)
			if err != nil {
				b.Fatal(err)
			}
			states = m.NumStates()
		}
		b.ReportMetric(float64(states), "states")
	})
}
