package experiment

import (
	"math"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// TestConsistentRemovalBreaksTheModel demonstrates the §VII-A2 limitation
// the paper states for its own model: under collective (consistent) rule
// deployment — removing a rule also removes overlapping lower-priority
// rules — the switch no longer behaves like the modeled chain, and the
// model's hit-probability predictions degrade. The setup makes the effect
// stark: a short-TTL high-priority rule repeatedly drags down a long-TTL
// low-priority rule it overlaps.
func TestConsistentRemovalBreaksTheModel(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "hi-short", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 3},
		{Name: "lo-long", Cover: flows.SetOf(1, 2), Priority: 1, Timeout: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Rules:     rs,
		Rates:     []float64{0.9, 0.4, 0.8},
		Delta:     0.1,
		CacheSize: 2,
	}
	const (
		steps   = 80
		trials  = 1500
		probeF  = flows.ID(2) // hit ⇔ lo-long cached
		horizon = float64(steps) * 0.1
	)
	model, err := core.NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dT := model.InitialDist()
	model.EvolveInPlace(dT, steps)
	predicted := model.HitProbability(dT, probeF)

	// dependents[j] lists the rules consistent deployment removes with
	// rule j: every lower-priority rule overlapping it.
	dependents := make([][]int, rs.Len())
	for j := range dependents {
		for other := 0; other < rs.Len(); other++ {
			if other != j && rs.HigherPriority(j, other) && rs.Rule(j).Cover.Overlaps(rs.Rule(other).Cover) {
				dependents[j] = append(dependents[j], other)
			}
		}
	}
	measure := func(consistent bool) float64 {
		rng := stats.NewRNG(17)
		hits := 0
		for trial := 0; trial < trials; trial++ {
			trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: cfg.Rates, Duration: horizon}, rng.Fork())
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := flowtable.New(rs, cfg.CacheSize, cfg.Delta)
			if err != nil {
				t.Fatal(err)
			}
			var dragged []int
			if consistent {
				tbl.OnRemove = func(ruleID int, reason flowtable.EvictionReason, _ float64) {
					dragged = append(dragged, dependents[ruleID]...)
				}
			}
			for _, a := range trace.Arrivals() {
				if _, hit := tbl.Lookup(a.Flow, a.Time); !hit {
					if j, covered := rs.HighestCovering(a.Flow); covered {
						tbl.Install(j, a.Time)
					}
				}
				// Apply dependent removals outside the table's internal
				// iteration.
				for len(dragged) > 0 {
					id := dragged[0]
					dragged = dragged[1:]
					tbl.Remove(id, a.Time)
				}
			}
			if _, hit := tbl.Lookup(probeF, horizon); hit {
				hits++
			}
		}
		return float64(hits) / trials
	}

	standard := measure(false)
	consistent := measure(true)

	if consistent >= standard-0.05 {
		t.Fatalf("consistent removal did not depress hit rate: %.3f vs %.3f", consistent, standard)
	}
	errStandard := math.Abs(standard - predicted)
	errConsistent := math.Abs(consistent - predicted)
	if errConsistent <= errStandard {
		t.Fatalf("model error should grow under consistent removal: |%.3f-%.3f|=%.3f vs |%.3f-%.3f|=%.3f",
			standard, predicted, errStandard, consistent, predicted, errConsistent)
	}
	t.Logf("model=%.3f standard=%.3f consistent=%.3f (the §VII-A2 limitation, quantified)",
		predicted, standard, consistent)
}
