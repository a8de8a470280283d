package workload

import (
	"fmt"
	"sort"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// The paper's model assumes Poisson arrivals (§IV-A1). Real traffic is
// often bursty; this file provides an ON/OFF Markov-modulated Poisson
// generator so the evaluation can measure how model misspecification
// degrades the attack (an ablation beyond the paper).

// BurstConfig configures Markov-modulated Poisson traffic: each flow
// alternates between an ON state (arrivals at BurstFactor × its base
// rate) and an OFF state (silent), with exponentially distributed state
// holding times. The long-run average rate matches the base rate, so the
// attacker's Poisson-fitted model sees the correct first moment but the
// wrong burst structure.
type BurstConfig struct {
	// Rates[f] is the long-run average rate λ_f (arrivals/second).
	Rates []float64
	// Duration is the trace length in seconds.
	Duration float64
	// BurstFactor is the ON-state rate multiplier (> 1).
	BurstFactor float64
	// MeanOn and MeanOff are the expected ON/OFF dwell times in seconds.
	MeanOn, MeanOff float64
}

// Validate checks the configuration. For the average rate to equal the
// base rate, BurstFactor must equal (MeanOn+MeanOff)/MeanOn.
func (c BurstConfig) Validate() error {
	if len(c.Rates) == 0 || c.Duration <= 0 {
		return fmt.Errorf("workload: bad burst config %+v", c)
	}
	if c.BurstFactor <= 1 || c.MeanOn <= 0 || c.MeanOff <= 0 {
		return fmt.Errorf("workload: bad burst shape %+v", c)
	}
	return nil
}

// DefaultBurstShape returns a shape whose ON fraction matches the burst
// factor, preserving the average rate: ON 20%% of the time at 5× rate.
func DefaultBurstShape() (burstFactor, meanOn, meanOff float64) {
	return 5, 0.5, 2.0
}

// GenerateBursty samples one ON/OFF modulated trace. The ON-state rate is
// scaled so each flow's long-run mean is its configured rate regardless
// of the dwell-time split.
func GenerateBursty(cfg BurstConfig, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var arrivals []Arrival
	g := new(stats.RNG) // per-flow stream: rng.Fork()'s, reseeded in place
	onFrac := cfg.MeanOn / (cfg.MeanOn + cfg.MeanOff)
	for f, rate := range cfg.Rates {
		if rate == 0 {
			continue
		}
		g.Reseed(rng.Int63())
		onRate := rate / onFrac // preserves the long-run mean
		t := 0.0
		on := g.Bernoulli(onFrac) // stationary initial state
		for t < cfg.Duration {
			var dwell float64
			if on {
				dwell = g.Exp(1 / cfg.MeanOn)
				end := t + dwell
				if end > cfg.Duration {
					end = cfg.Duration
				}
				for a := t + g.Exp(onRate); a < end; a += g.Exp(onRate) {
					arrivals = append(arrivals, Arrival{Time: a, Flow: flows.ID(f)})
				}
			} else {
				dwell = g.Exp(1 / cfg.MeanOff)
			}
			t += dwell
			on = !on
		}
	}
	sortArrivals(arrivals)
	return &Trace{arrivals: arrivals}, nil
}

// GeneratePeriodic samples deterministic traffic: flow f arrives exactly
// every 1/rate seconds with a uniform phase. It is the opposite extreme
// from Poisson (zero variance inter-arrivals) for robustness testing.
func GeneratePeriodic(cfg PoissonConfig, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var arrivals []Arrival
	for f, rate := range cfg.Rates {
		if rate == 0 {
			continue
		}
		period := 1 / rate
		for t := rng.Float64() * period; t < cfg.Duration; t += period {
			arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
		}
	}
	sortArrivals(arrivals)
	return &Trace{arrivals: arrivals}, nil
}

func sortArrivals(arrivals []Arrival) {
	// Insertion into one slice then a single sort keeps determinism.
	sort.SliceStable(arrivals, func(i, j int) bool {
		if arrivals[i].Time != arrivals[j].Time {
			return arrivals[i].Time < arrivals[j].Time
		}
		return arrivals[i].Flow < arrivals[j].Flow
	})
}
