package workload

import (
	"reflect"
	"sort"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// generatePoissonRef is GeneratePoisson as it was before its per-flow
// stream was pooled, its arrival slice presized and its sort switched to
// slices.SortFunc: a fresh child stream per call and sort.Slice on the
// (time, flow) key. It is the oracle TestGeneratePoissonMatchesReference
// holds the production generator to.
func generatePoissonRef(cfg PoissonConfig, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var arrivals []Arrival
	g := new(stats.RNG) // per-flow stream: rng.Fork()'s, reseeded in place
	for f, rate := range cfg.Rates {
		if rate == 0 {
			continue
		}
		g.Reseed(rng.Int63())
		for t := g.Exp(rate); t < cfg.Duration; t += g.Exp(rate) {
			arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
		}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].Time != arrivals[j].Time {
			return arrivals[i].Time < arrivals[j].Time
		}
		return arrivals[i].Flow < arrivals[j].Flow
	})
	return &Trace{arrivals: arrivals}, nil
}

// TestGeneratePoissonMatchesReference holds GeneratePoisson to the
// reference generator, arrival for arrival, and checks both leave the
// parent stream in the same state: over many seeds and rate vectors with
// zero rates, a single flow, all-zero rates, and rates large enough that
// the window holds thousands of arrivals.
func TestGeneratePoissonMatchesReference(t *testing.T) {
	uniform := UniformRates(16, stats.NewRNG(2))
	cases := []struct {
		name     string
		rates    []float64
		duration float64
	}{
		{"uniform16", uniform, 15},
		{"zeros", []float64{0, 0.5, 0, 1, 0, 0, 2.5, 0}, 5},
		{"oneFlow", []float64{0.7}, 5},
		{"allZero", []float64{0, 0, 0}, 5},
		{"largeLambda", []float64{400, 150, 0.1, 0, 900}, 5},
		{"short", []float64{3, 3, 3}, 0.01},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 40; seed++ {
			cfg := PoissonConfig{Rates: c.rates, Duration: c.duration}
			got, want := stats.NewRNG(seed), stats.NewRNG(seed)
			a, err := GeneratePoisson(cfg, got)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generatePoissonRef(cfg, want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.AppendArrivals(nil), b.AppendArrivals(nil)) {
				t.Fatalf("%s seed %d: %d arrivals, reference %d, or their order differs", c.name, seed, a.Len(), b.Len())
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s seed %d: parent stream continues %d, reference %d", c.name, seed, g, w)
			}
		}
	}
}
