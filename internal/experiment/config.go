// Package experiment reproduces the paper's evaluation (§VI): network
// configuration generation, the attack trial runner, and the series
// builders for Figures 6a, 6b, 7a and 7b plus the latency measurements of
// §VI-A. See DESIGN.md for the experiment ↔ module index.
package experiment

import (
	"fmt"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// Params are the evaluation parameters of §VI-A.
type Params struct {
	// NumFlows is the flow-class universe size (16).
	NumFlows int
	// NumRules is |Rules| (12), drawn from the 3^MaskBits candidates.
	NumRules int
	// MaskBits is the wildcarded address width (4 → 81 candidate rules).
	MaskBits int
	// CacheSize is the switch table capacity n (6).
	CacheSize int
	// Delta is the model step Δ in seconds. The paper leaves Δ implicit;
	// it must keep multiple arrivals per step rare (§IV-A).
	Delta float64
	// WindowSeconds is the traffic window before the probe (15 s).
	WindowSeconds float64
	// USum is recorded, never read; see USumRecord.
	USum USumRecord
	// AbsenceLo/AbsenceHi restrict the target flow: its probability of
	// absence e^{-λ·T·Δ} must fall in [AbsenceLo, AbsenceHi] ("the
	// target flow was chosen uniformly from all flows for which the
	// probability of absence is within a specific range", §VI-A).
	AbsenceLo, AbsenceHi float64
}

// USumRecord is the compact model's former §IV-B u-sum estimator
// tuning. Every u-sum is now exact, so nothing reads it: it is a wire
// record, kept so session specs, saved configurations and recordings
// (whose spec and configHash embed it) keep their form.
type USumRecord struct {
	ExactLimit int
	MCSamples  int
	Seed       int64
}

// DefaultParams returns the paper's §VI-A parameters (with Δ chosen to
// keep per-step multi-arrivals rare).
func DefaultParams() Params {
	return Params{
		NumFlows:  16,
		NumRules:  12,
		MaskBits:  4,
		CacheSize: 6,
		// With 16 flows at λ ~ U[0,1], ΣλΔ must stay well below 1 for
		// the chain's one-event-per-step assumption (§IV-A) to hold;
		// Δ = 25 ms gives ΣλΔ ≈ 0.2.
		Delta:         0.025,
		WindowSeconds: 15,
		USum:          USumRecord{ExactLimit: 20000, MCSamples: 1200, Seed: 1},
		AbsenceLo:     0.02,
		AbsenceHi:     0.98,
	}
}

// SmallParams returns the scaled-down configuration (8 flows, 6 rules
// over 3 mask bits, a 3-entry cache, a 5 s window) whose models build in
// milliseconds: the CLIs' small scale and the tests' working scale.
func SmallParams() Params {
	p := DefaultParams()
	p.NumFlows, p.NumRules, p.MaskBits, p.CacheSize = 8, 6, 3, 3
	p.WindowSeconds = 5
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.NumFlows < 2 || p.NumRules < 1 || p.CacheSize < 1 {
		return fmt.Errorf("experiment: degenerate sizes %+v", p)
	}
	if p.NumRules > core.MaxCompactRules {
		return fmt.Errorf("experiment: %d rules exceed the compact model's %d", p.NumRules, core.MaxCompactRules)
	}
	if p.MaskBits < 0 || p.MaskBits > MaxMaskBits {
		return fmt.Errorf("experiment: %d mask bits outside [0, %d]", p.MaskBits, MaxMaskBits)
	}
	if p.NumFlows > MaxFlows {
		return fmt.Errorf("experiment: %d flows exceed %d", p.NumFlows, MaxFlows)
	}
	if p.CacheSize > MaxCacheSize {
		return fmt.Errorf("experiment: a %d-entry cache exceeds %d", p.CacheSize, MaxCacheSize)
	}
	if p.Delta <= 0 || p.WindowSeconds <= 0 {
		return fmt.Errorf("experiment: bad timing %+v", p)
	}
	// Compare the quotient before Steps converts it to int, so a NaN or
	// 1e300-step window cannot overflow the conversion.
	if q := p.WindowSeconds / p.Delta; !(q <= MaxSteps) || p.Steps() > MaxSteps {
		return fmt.Errorf("experiment: a %v s window at Δ %v s exceeds %d model steps", p.WindowSeconds, p.Delta, MaxSteps)
	}
	if p.AbsenceLo < 0 || p.AbsenceHi > 1 || p.AbsenceLo >= p.AbsenceHi {
		return fmt.Errorf("experiment: bad absence range [%v,%v]", p.AbsenceLo, p.AbsenceHi)
	}
	return nil
}

// Bounds on the sizes a spec may ask for, so that one spec from outside
// the program cannot tie up or exhaust a process before any model
// exists. Rule generation enumerates all 3^MaskBits ternary masks and
// covers each over NumFlows flows; the flow table preallocates CacheSize
// entries for every trial. The paper's scale is 16 flows, 4 mask bits
// and a 6-entry cache.
const (
	// MaxMaskBits admits 3¹⁰ = 59,049 candidate rules.
	MaxMaskBits = 10
	// MaxFlows is one flow per address at MaxMaskBits.
	MaxFlows = 1 << MaxMaskBits
	// MaxCacheSize is the largest rule set a compact model accepts: a
	// larger table could never fill.
	MaxCacheSize = core.MaxCompactRules
)

// MaxSteps bounds the probe window T in model steps (the paper's window
// is 600). A build evolves its chains over every step, so the bound
// keeps a spec from outside the program from pinning a worker.
const MaxSteps = 1 << 16

// Steps returns the probe window T in model steps (⌈window/Δ⌉).
func (p Params) Steps() int { return WindowSteps(p.WindowSeconds, p.Delta) }

// WindowSteps returns ⌈window/delta⌉, the model steps that cover an
// attack window. It truncates the quotient and adds a step only when the
// steps fall short of the window, so 0.3 s at Δ 0.1 s is 3 steps although
// 0.3/0.1 rounds to 2.9999999999999996.
func WindowSteps(window, delta float64) int {
	t := int(window / delta)
	if float64(t)*delta < window {
		t++
	}
	return t
}

// NetworkConfig is one sampled "network configuration" in the paper's
// sense: Poisson parameters, flow-rule relation, and target flow —
// together with the attacker's fitted model.
type NetworkConfig struct {
	// Params echoes the generation parameters.
	Params Params
	// Rules is the sampled policy.
	Rules *rules.Set
	// Rates are the sampled λ_f (per second).
	Rates []float64
	// Target is the target flow f̂.
	Target flows.ID
	// Core is the model configuration handed to the attacker.
	Core core.Config
	// Selector holds the evolved model chains for probe selection.
	Selector *core.ProbeSelector
	// Optimal is the best probe over all flows.
	Optimal core.ProbeEval
	// Restricted is the best probe over flows ≠ target (§VI-B Figure 7).
	Restricted core.ProbeEval
	// TargetEval is the evaluation of probing the target itself (what
	// the naive attacker implicitly relies on).
	TargetEval core.ProbeEval
	// NumCoveringTarget is |{rules covering f̂}| — Figure 7a's x-axis.
	NumCoveringTarget int
}

// PAbsent returns the target's prior probability of absence.
func (nc *NetworkConfig) PAbsent() float64 { return nc.Selector.PAbsent() }

// OptimalDiffersFromTarget reports whether the model-optimal probe is a
// different flow than the target — the Figure 6 population filter.
func (nc *NetworkConfig) OptimalDiffersFromTarget() bool {
	return nc.Optimal.Flow != nc.Target
}

// DetectorViable reports the §VI-B usability filter evaluated on the
// optimal probe.
func (nc *NetworkConfig) DetectorViable() bool { return nc.Optimal.DetectorViable() }

// minFittedRate floors empirical rates so a class that happened to be
// silent in the fitted capture still has a live Poisson model.
const minFittedRate = 1e-4

// GenerateConfig samples one network configuration: a random rule set, a
// random rate vector, and a target flow with absence probability in the
// configured range, then fits the attacker's compact model. It returns an
// error if no flow qualifies as a target (callers resample).
//
// With fitted rates, flow f takes fitted[f] for f < len(fitted), and
// flows beyond the fitted classes take the smallest fitted rate; the
// rule set, target choice and model fit still come from rng with the
// exact draw sequence of a nil fitted. Both chains are built in b (nil
// for none); the configuration does not depend on it.
func GenerateConfig(p Params, fitted []float64, rng *stats.RNG, b *core.Builds) (*NetworkConfig, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gc := rules.GenerateConfig{
		NumFlows: p.NumFlows,
		NumRules: p.NumRules,
		MaskBits: p.MaskBits,
		Timeouts: timeoutChoices(p.Delta),
	}
	rs, err := rules.Generate(gc, rng)
	if err != nil {
		return nil, err
	}
	rates := workload.UniformRates(p.NumFlows, rng)
	if len(fitted) > 0 {
		floor := fitted[0]
		for _, r := range fitted {
			if r < floor {
				floor = r
			}
		}
		if floor < minFittedRate {
			floor = minFittedRate
		}
		for f := range rates {
			if f < len(fitted) && fitted[f] > minFittedRate {
				rates[f] = fitted[f]
			} else {
				rates[f] = floor
			}
		}
	}
	cfg := core.Config{Rules: rs, Rates: rates, Delta: p.Delta, CacheSize: p.CacheSize}

	target, ok := pickTarget(p, rs, rates, rng)
	if !ok {
		return nil, fmt.Errorf("experiment: no covered flow with absence in [%v,%v]", p.AbsenceLo, p.AbsenceHi)
	}

	// Nothing reads USum, but the draw and the recorded seed stay, so a
	// caller's later draws from rng and every saved configuration are
	// unchanged.
	p.USum.Seed = rng.Int63()
	sel, err := core.NewCompactSelector(cfg, target, p.Steps(), b)
	if err != nil {
		return nil, err
	}
	nc := &NetworkConfig{
		Params:            p,
		Rules:             rs,
		Rates:             rates,
		Target:            target,
		Core:              cfg,
		Selector:          sel,
		NumCoveringTarget: rules.NumCovering(rs, target),
		TargetEval:        sel.Evaluate(target),
	}
	var found bool
	nc.Optimal, found = sel.Best(sel.AllFlows())
	if !found {
		return nil, fmt.Errorf("experiment: no probe candidates")
	}
	nc.Restricted, found = sel.Best(sel.FlowsExcept(target))
	if !found {
		return nil, fmt.Errorf("experiment: no restricted probe candidates")
	}
	return nc, nil
}

// AbsenceStrata are the target-absence ranges the figure runners cycle
// through. The paper chooses each configuration's target "uniformly from
// all flows for which the probability of absence is within a specific
// range (defined by the experiment parameters)" (§VI-A); with λ ~ U[0,1]
// and a 15 s window, unstratified sampling would concentrate every target
// near absence ≈ 0, leaving the Figure 6a/7b x-axes empty.
var AbsenceStrata = [][2]float64{
	{0.02, 0.20}, {0.20, 0.40}, {0.40, 0.60}, {0.60, 0.80}, {0.80, 0.98},
}

// WithStratum returns a copy of p restricted to the i-th absence stratum
// (wrapping around).
func (p Params) WithStratum(i int) Params {
	s := AbsenceStrata[i%len(AbsenceStrata)]
	p.AbsenceLo, p.AbsenceHi = s[0], s[1]
	return p
}

// timeoutChoices returns the paper's TTL menu {⌈k/(10Δ)⌉ : k = 1..10}.
func timeoutChoices(delta float64) []int {
	return rules.DefaultGenerateConfig(delta).Timeouts
}

// pickTarget chooses the target uniformly among covered flows whose
// absence probability lies in the configured range.
func pickTarget(p Params, rs *rules.Set, rates []float64, rng *stats.RNG) (flows.ID, bool) {
	covered := rs.CoveredFlows()
	horizon := float64(p.Steps()) * p.Delta
	var eligible []flows.ID
	for f := 0; f < len(rates); f++ {
		if !covered.Contains(flows.ID(f)) {
			continue
		}
		absent := absenceProb(rates[f], horizon)
		if absent >= p.AbsenceLo && absent <= p.AbsenceHi {
			eligible = append(eligible, flows.ID(f))
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}

func absenceProb(rate, horizon float64) float64 {
	return expNeg(rate * horizon)
}
