package workload

import (
	"fmt"
	"math"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// The paper's §IV independence assumption — memoryless per-flow Poisson
// arrivals — is exactly what real traffic violates. This file provides
// the heavy-tailed and time-varying generators the "realistic traffic"
// experiments run on:
//
//   - Pareto renewal interarrivals (heavy tail, index α): long silences
//     punctuated by clusters, the classic self-similar-traffic building
//     block.
//   - Log-normal renewal interarrivals (heavy-ish tail, shape σ): the
//     empirical fit of many measured flow-interarrival distributions.
//   - Rate-modulated Poisson (diurnal sinusoid and/or flash-crowd
//     spike), sampled by thinning so the arrival process is an exact
//     inhomogeneous Poisson process.
//
// Every generator preserves the configured long-run mean rate per flow —
// the attacker's Poisson-fitted model sees the correct first moment and
// the wrong everything else — and draws all randomness from forked
// seeded streams, so traces are byte-deterministic per seed.

// ParetoConfig configures Pareto-renewal traffic: flow f's interarrival
// times are i.i.d. Pareto(Alpha, xm_f) with xm_f chosen so the mean
// interarrival is 1/Rates[f].
type ParetoConfig struct {
	// Rates[f] is the long-run average rate λ_f (arrivals/second).
	Rates []float64
	// Duration is the trace length in seconds.
	Duration float64
	// Alpha is the tail index. The mean exists only for Alpha > 1; the
	// variance is infinite for Alpha ≤ 2, the interesting regime.
	Alpha float64
}

// Validate checks the configuration.
func (c ParetoConfig) Validate() error {
	if len(c.Rates) == 0 || c.Duration <= 0 {
		return fmt.Errorf("workload: bad pareto config %+v", c)
	}
	if c.Alpha <= 1 {
		return fmt.Errorf("workload: pareto tail index %v ≤ 1 has no mean", c.Alpha)
	}
	for f, r := range c.Rates {
		if r < 0 {
			return fmt.Errorf("workload: negative rate %v for flow %d", r, f)
		}
	}
	return nil
}

// ParetoScale returns the xm that gives a Pareto(alpha, xm) interarrival
// the mean 1/rate: xm = (alpha−1)/(alpha·rate).
func ParetoScale(alpha, rate float64) float64 {
	return (alpha - 1) / (alpha * rate)
}

// GeneratePareto samples an independent Pareto-renewal arrival process
// per flow and merges them into one time-ordered trace.
func GeneratePareto(cfg ParetoConfig, rng *stats.RNG) (*Trace, error) {
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
		xm := ParetoScale(cfg.Alpha, rate)
		for t := g.Pareto(cfg.Alpha, xm); t < cfg.Duration; t += g.Pareto(cfg.Alpha, xm) {
			arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
		}
	}
	sortArrivals(arrivals)
	return &Trace{arrivals: arrivals}, nil
}

// LogNormalConfig configures log-normal-renewal traffic: flow f's
// interarrival times are i.i.d. LogNormal(μ_f, Sigma) with μ_f chosen so
// the mean interarrival is 1/Rates[f].
type LogNormalConfig struct {
	// Rates[f] is the long-run average rate λ_f (arrivals/second).
	Rates []float64
	// Duration is the trace length in seconds.
	Duration float64
	// Sigma is the log-scale shape parameter (> 0). Larger σ means a
	// heavier tail; σ → 0 degenerates to periodic arrivals.
	Sigma float64
}

// Validate checks the configuration.
func (c LogNormalConfig) Validate() error {
	if len(c.Rates) == 0 || c.Duration <= 0 || c.Sigma <= 0 {
		return fmt.Errorf("workload: bad lognormal config %+v", c)
	}
	for f, r := range c.Rates {
		if r < 0 {
			return fmt.Errorf("workload: negative rate %v for flow %d", r, f)
		}
	}
	return nil
}

// LogNormalMu returns the μ that gives a LogNormal(μ, sigma) interarrival
// the mean 1/rate: μ = −ln(rate) − σ²/2.
func LogNormalMu(sigma, rate float64) float64 {
	return -math.Log(rate) - sigma*sigma/2
}

// GenerateLogNormal samples an independent log-normal-renewal arrival
// process per flow and merges them into one time-ordered trace.
func GenerateLogNormal(cfg LogNormalConfig, rng *stats.RNG) (*Trace, error) {
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
		mu := LogNormalMu(cfg.Sigma, rate)
		for t := g.LogNormal(mu, cfg.Sigma); t < cfg.Duration; t += g.LogNormal(mu, cfg.Sigma) {
			arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
		}
	}
	sortArrivals(arrivals)
	return &Trace{arrivals: arrivals}, nil
}

// RateProfile is a deterministic time-varying rate multiplier composed of
// a diurnal sinusoid and a flash-crowd spike. The zero profile is the
// constant multiplier 1 (plain Poisson). Both components compose
// multiplicatively, and the profile is normalized (see Mean) so modulated
// traffic keeps the configured long-run mean rate.
type RateProfile struct {
	// DiurnalPeriod and DiurnalAmp add the factor
	// 1 + DiurnalAmp·sin(2π·t/DiurnalPeriod); Amp must lie in [0, 1] to
	// keep the rate non-negative. Zero period disables the component.
	DiurnalPeriod float64
	DiurnalAmp    float64
	// FlashAt/FlashDur/FlashFactor multiply the rate by FlashFactor
	// during [FlashAt, FlashAt+FlashDur). Zero duration disables the
	// component.
	FlashAt, FlashDur float64
	FlashFactor       float64
}

// Validate checks the profile.
func (p RateProfile) Validate() error {
	if p.DiurnalPeriod < 0 || p.DiurnalAmp < 0 || p.DiurnalAmp > 1 {
		return fmt.Errorf("workload: bad diurnal profile %+v", p)
	}
	if p.DiurnalPeriod == 0 && p.DiurnalAmp != 0 {
		return fmt.Errorf("workload: diurnal amplitude without a period %+v", p)
	}
	if p.FlashDur < 0 || p.FlashAt < 0 || (p.FlashDur > 0 && p.FlashFactor < 1) {
		return fmt.Errorf("workload: bad flash profile %+v", p)
	}
	return nil
}

// Enabled reports whether the profile modulates anything.
func (p RateProfile) Enabled() bool {
	return (p.DiurnalPeriod > 0 && p.DiurnalAmp > 0) || (p.FlashDur > 0 && p.FlashFactor > 1)
}

// At returns the un-normalized multiplier at time t.
func (p RateProfile) At(t float64) float64 {
	m := 1.0
	if p.DiurnalPeriod > 0 && p.DiurnalAmp > 0 {
		m *= 1 + p.DiurnalAmp*math.Sin(2*math.Pi*t/p.DiurnalPeriod)
	}
	if p.FlashDur > 0 && t >= p.FlashAt && t < p.FlashAt+p.FlashDur {
		m *= p.FlashFactor
	}
	return m
}

// Max returns an upper bound on the multiplier over [0, duration).
func (p RateProfile) Max() float64 {
	m := 1.0
	if p.DiurnalPeriod > 0 {
		m *= 1 + p.DiurnalAmp
	}
	if p.FlashDur > 0 {
		m *= p.FlashFactor
	}
	return m
}

// Mean returns the average multiplier over [0, duration), computed in
// closed form: the sinusoid contributes its partial-cycle integral and
// the flash spike its excess mass. Modulated generation divides by this,
// so the long-run mean rate matches the configured rate exactly — a
// flash crowd steals its extra arrivals from the quiet part of the
// window instead of inflating the total.
func (p RateProfile) Mean(duration float64) float64 {
	if duration <= 0 {
		return 1
	}
	m := 1.0
	if p.DiurnalPeriod > 0 && p.DiurnalAmp > 0 {
		// ∫₀ᵈ (1 + A·sin(2πt/P)) dt = d + A·P/(2π)·(1 − cos(2πd/P))
		w := 2 * math.Pi / p.DiurnalPeriod
		m = 1 + p.DiurnalAmp*(1-math.Cos(w*duration))/(w*duration)
	}
	if p.FlashDur > 0 && p.FlashFactor > 1 && p.FlashAt < duration {
		overlap := math.Min(duration, p.FlashAt+p.FlashDur) - p.FlashAt
		m += (p.FlashFactor - 1) * overlap / duration
	}
	return m
}

// GenerateModulated samples an inhomogeneous Poisson process per flow
// with rate λ_f·profile.At(t)/profile.Mean(D), by thinning a homogeneous
// process at the profile's peak rate. The normalization keeps each
// flow's expected arrival count at λ_f·D regardless of the profile, so
// modulated traces are mean-rate-comparable with every other generator.
func GenerateModulated(cfg PoissonConfig, profile RateProfile, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if !profile.Enabled() {
		return GeneratePoisson(cfg, rng)
	}
	mean := profile.Mean(cfg.Duration)
	peak := profile.Max() / mean
	var arrivals []Arrival
	g := new(stats.RNG) // per-flow stream: rng.Fork()'s, reseeded in place
	for f, rate := range cfg.Rates {
		if rate == 0 {
			continue
		}
		g.Reseed(rng.Int63())
		lambdaMax := rate * peak
		for t := g.Exp(lambdaMax); t < cfg.Duration; t += g.Exp(lambdaMax) {
			// Thinning: accept with λ(t)/λmax = At(t)/Max().
			if g.Float64()*profile.Max() < profile.At(t) {
				arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
			}
		}
	}
	sortArrivals(arrivals)
	return &Trace{arrivals: arrivals}, nil
}
