// Package workload generates the paper's traffic: each flow f arrives as a
// Poisson process with rate λ_f (§IV-A1). It replaces the background Scapy
// scripts of the paper's Mininet testbed with seeded, deterministic traces.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// Arrival is one flow occurrence at an absolute time (seconds).
type Arrival struct {
	Time float64
	Flow flows.ID
}

// Trace is a time-ordered sequence of flow arrivals.
type Trace struct {
	arrivals []Arrival
}

// NewTrace builds a trace from explicit arrivals (sorted defensively by
// time). It is how recorded traffic windows are reconstituted for replay.
func NewTrace(arrivals []Arrival) *Trace {
	out := make([]Arrival, len(arrivals))
	copy(out, arrivals)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return &Trace{arrivals: out}
}

// Arrivals returns the arrivals in time order.
func (t *Trace) Arrivals() []Arrival {
	out := make([]Arrival, len(t.arrivals))
	copy(out, t.arrivals)
	return out
}

// AppendArrivals appends the arrivals, in time order, to dst and returns
// the extended slice: Arrivals for a caller that reuses its own buffer.
func (t *Trace) AppendArrivals(dst []Arrival) []Arrival {
	return append(dst, t.arrivals...)
}

// Len returns the number of arrivals.
func (t *Trace) Len() int { return len(t.arrivals) }

// OccurredWithin reports whether flow f arrived in the half-open window
// (end-window, end]. It is the ground truth for the indicator X̂ of §V-A.
func (t *Trace) OccurredWithin(f flows.ID, end, window float64) bool {
	lo := end - window
	// Binary search for the first arrival with Time > lo.
	i := sort.Search(len(t.arrivals), func(i int) bool { return t.arrivals[i].Time > lo })
	for ; i < len(t.arrivals) && t.arrivals[i].Time <= end; i++ {
		if t.arrivals[i].Flow == f {
			return true
		}
	}
	return false
}

// PoissonConfig configures trace generation.
type PoissonConfig struct {
	// Rates[f] is λ_f in arrivals per second.
	Rates []float64
	// Duration is the trace length in seconds.
	Duration float64
}

// Validate checks the configuration.
func (c PoissonConfig) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("workload: no flow rates")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: duration %v ≤ 0", c.Duration)
	}
	for f, r := range c.Rates {
		if r < 0 {
			return fmt.Errorf("workload: negative rate %v for flow %d", r, f)
		}
	}
	return nil
}

// streams holds GeneratePoisson's per-flow streams. Each call reseeds one
// in place per flow, so a pooled stream saves the ~4.9 KiB generator a
// call would otherwise allocate.
var streams = sync.Pool{New: func() any { return new(stats.RNG) }}

// maxPresize caps the arrival slice GeneratePoisson reserves up front, so
// an absurd rate or duration cannot reserve memory before any arrival is
// drawn; a longer trace grows the slice as it goes.
const maxPresize = 1 << 16

// GeneratePoisson samples an independent Poisson arrival process per flow
// over [0, Duration) and merges them into one time-ordered trace.
//
// Each flow with a non-zero rate, in flow order, draws its process from
// a stream seeded with the next rng.Int63 — the stream rng.Fork() would
// give it — and the merged arrivals are ordered by (time, flow).
func GeneratePoisson(cfg PoissonConfig, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arrivals := make([]Arrival, 0, presize(cfg))
	g := streams.Get().(*stats.RNG)
	for f, rate := range cfg.Rates {
		if rate == 0 {
			continue
		}
		g.Reseed(rng.Int63())
		for t := g.Exp(rate); t < cfg.Duration; t += g.Exp(rate) {
			arrivals = append(arrivals, Arrival{Time: t, Flow: flows.ID(f)})
		}
	}
	streams.Put(g)
	// (time, flow) is a total order on distinct arrivals, so any correct
	// sort yields the same trace.
	slices.SortFunc(arrivals, func(a, b Arrival) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Flow, b.Flow)
	})
	return &Trace{arrivals: arrivals}, nil
}

// presize returns the arrival count a Poisson window almost never
// exceeds: its mean Σλ·T plus four standard deviations and a small
// floor, capped at maxPresize.
func presize(cfg PoissonConfig) int {
	var rate float64
	for _, r := range cfg.Rates {
		rate += r
	}
	mean := rate * cfg.Duration
	n := mean + 4*math.Sqrt(mean) + 4
	if !(n < maxPresize) { // also catches an infinite or NaN rate
		return maxPresize
	}
	return int(n)
}

// UniformRates draws λ_f uniformly from [0, 1) for n flows, the paper's
// evaluation setting (§VI-A).
func UniformRates(n int, rng *stats.RNG) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// StepArrivals discretizes a trace into model steps of width delta: the
// result's entry s lists the flows arriving in step s, i.e. during
// [s·delta, (s+1)·delta). The basic Markov model assumes at most one
// arrival per step; callers can inspect multi-arrival steps to validate a
// chosen Δ.
func StepArrivals(t *Trace, delta float64, steps int) [][]flows.ID {
	out := make([][]flows.ID, steps)
	for _, a := range t.arrivals {
		s := int(a.Time / delta)
		if s < 0 || s >= steps {
			continue
		}
		out[s] = append(out[s], a.Flow)
	}
	return out
}
