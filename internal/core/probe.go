package core

import (
	"fmt"
	"math"
	"sync"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/stats"
)

// ProbeSelector implements the probe-selection procedure of Section V. It
// holds the switch-state distribution at attack time T under two chains:
// the unconditional chain and the chain conditioned on the target flow
// never occurring (λ_f̂ = 0), from which all joint probabilities
// P(X̂ = x ∧ Q_f = q) follow.
type ProbeSelector struct {
	model   Model
	model0  Model // chain with the target's rate zeroed
	target  flows.ID
	steps   int
	pAbsent float64 // P(X̂ = 0) = e^{-λ_f̂·T·Δ}

	dist  markov.Dist // state distribution at T, unconditional
	dist0 markov.Dist // state distribution at T given X̂ = 0

	// seqPool recycles EvaluateSequence scratch arenas (see multiprobe.go).
	seqPool sync.Pool
	// trackerPool recycles the belief trackers posteriorAfter conditions.
	trackerPool sync.Pool
}

// NewProbeSelector evolves both chains T steps from the empty cache and
// returns a selector for inferring whether target occurred within those T
// steps.
func NewProbeSelector(model, model0 Model, target flows.ID, steps int) (*ProbeSelector, error) {
	cfg := model.ModelConfig()
	if int(target) >= len(cfg.Rates) {
		return nil, fmt.Errorf("core: target flow %d outside universe", target)
	}
	if steps < 1 {
		return nil, fmt.Errorf("core: probe window %d steps < 1", steps)
	}
	s := &ProbeSelector{
		model:   model,
		model0:  model0,
		target:  target,
		steps:   steps,
		pAbsent: math.Exp(-cfg.Rates[target] * cfg.Delta * float64(steps)),
	}
	s.dist = model.InitialDist()
	model.EvolveInPlace(s.dist, steps)
	s.dist0 = model0.InitialDist()
	model0.EvolveInPlace(s.dist0, steps)
	return s, nil
}

// MemBytes estimates the selector's resident footprint: both evolved
// distributions plus both chains' models (when compact). Only selectors
// built by NewSelectorWithModel over one model share a chain, and each
// of them counts it.
func (s *ProbeSelector) MemBytes() int64 {
	b := int64(len(s.dist)+len(s.dist0)) * 8
	if m, ok := s.model.(*CompactModel); ok {
		b += m.MemBytes()
	}
	if m, ok := s.model0.(*CompactModel); ok {
		b += m.MemBytes()
	}
	return b
}

// NewCompactSelector builds the compact model for cfg and its
// target-conditioned twin in b (nil for none), then assembles a
// selector — the paper's end-to-end attacker setup. steps is
// T = ⌈window/Δ⌉. Both chains are built fresh; callers that need more
// than one selector over a configuration keep the first one's chains
// (GainVsWindow, NewSelectorWithModel).
func NewCompactSelector(cfg Config, target flows.ID, steps int, b *Builds) (*ProbeSelector, error) {
	if err := checkTarget(cfg, target); err != nil {
		return nil, err
	}
	m, err := NewCompactModel(cfg, b)
	if err != nil {
		return nil, err
	}
	return NewSelectorWithModel(m, target, steps)
}

// NewSelectorWithModel assembles a selector around a prebuilt
// unconditional model, building only the target-conditioned chain from
// m's own configuration, in the context m was built in. Useful when
// evaluating many targets over one policy (the defense package's leakage
// profiling), since the unconditional chain is target-independent.
func NewSelectorWithModel(m *CompactModel, target flows.ID, steps int) (*ProbeSelector, error) {
	cfg := m.ModelConfig()
	if err := checkTarget(cfg, target); err != nil {
		return nil, err
	}
	m0, err := NewCompactModel(cfg.withoutFlow(target), m.builds)
	if err != nil {
		return nil, err
	}
	return NewProbeSelector(m, m0, target, steps)
}

// builds returns the build context of the selector's unconditional
// chain: its compact model's, or nil for a basic model.
func (s *ProbeSelector) builds() *Builds {
	if m, ok := s.model.(*CompactModel); ok {
		return m.builds
	}
	return nil
}

func checkTarget(cfg Config, target flows.ID) error {
	if int(target) < 0 || int(target) >= len(cfg.Rates) {
		return fmt.Errorf("core: target flow %d outside universe of %d flows", target, len(cfg.Rates))
	}
	return nil
}

// Target returns the target flow f̂.
func (s *ProbeSelector) Target() flows.ID { return s.target }

// Steps returns the probe window T in steps.
func (s *ProbeSelector) Steps() int { return s.steps }

// PAbsent returns P(X̂ = 0), the prior probability the target flow did not
// occur in the window.
func (s *ProbeSelector) PAbsent() float64 { return s.pAbsent }

// PriorEntropy returns H(X̂) in bits.
func (s *ProbeSelector) PriorEntropy() float64 {
	return stats.BinaryEntropy(s.pAbsent)
}

// ProbeEval is the evaluation of one candidate probe flow.
type ProbeEval struct {
	// Flow is the candidate probe.
	Flow flows.ID
	// Gain is IG(X̂ | Q_f) in bits.
	Gain float64
	// PHit is P(Q_f = 1).
	PHit float64
	// Joint[x][q] is P(X̂ = x ∧ Q_f = q).
	Joint [2][2]float64
	// PostAbsentGivenMiss is P(X̂ = 0 | Q_f = 0); NaN if P(Q_f = 0) = 0.
	PostAbsentGivenMiss float64
	// PostPresentGivenHit is P(X̂ = 1 | Q_f = 1); NaN if P(Q_f = 1) = 0.
	PostPresentGivenHit float64
}

// DetectorViable reports the paper's §VI-B configuration filter: the probe
// is a usable detector when P(X̂=0 | Q_f=0) > 0.5 and P(X̂=1 | Q_f=1) > 0.5.
func (e ProbeEval) DetectorViable() bool {
	return e.PostAbsentGivenMiss > 0.5 && e.PostPresentGivenHit > 0.5
}

// PosteriorPresent returns P(X̂ = 1 | Q_f = q) for an observed outcome.
func (e ProbeEval) PosteriorPresent(hit bool) float64 {
	q := 0
	if hit {
		q = 1
	}
	pq := e.Joint[0][q] + e.Joint[1][q]
	if pq <= 0 {
		return 1 - e.priorAbsent()
	}
	return e.Joint[1][q] / pq
}

func (e ProbeEval) priorAbsent() float64 {
	return e.Joint[0][0] + e.Joint[0][1]
}

// Evaluate computes the §V-A quantities for probing with flow f.
func (s *ProbeSelector) Evaluate(f flows.ID) ProbeEval {
	e := ProbeEval{Flow: f}
	e.PHit = s.model.HitProbability(s.dist, f)
	hitGiven0 := s.model0.HitProbability(s.dist0, f)

	e.Joint[0][1] = s.pAbsent * hitGiven0
	e.Joint[0][0] = s.pAbsent * (1 - hitGiven0)
	e.Joint[1][1] = clamp01(e.PHit - e.Joint[0][1])
	e.Joint[1][0] = clamp01((1 - e.PHit) - e.Joint[0][0])

	if pMiss := e.Joint[0][0] + e.Joint[1][0]; pMiss > 0 {
		e.PostAbsentGivenMiss = e.Joint[0][0] / pMiss
	} else {
		e.PostAbsentGivenMiss = math.NaN()
	}
	if pHit := e.Joint[0][1] + e.Joint[1][1]; pHit > 0 {
		e.PostPresentGivenHit = e.Joint[1][1] / pHit
	} else {
		e.PostPresentGivenHit = math.NaN()
	}

	e.Gain = s.PriorEntropy() - stats.ConditionalEntropyBits2x2(e.Joint)
	if e.Gain < 0 {
		e.Gain = 0 // numerical noise; information gain is non-negative
	}
	return e
}

// Best evaluates every candidate probe and returns the one with the
// largest information gain. ok is false when candidates is empty.
func (s *ProbeSelector) Best(candidates []flows.ID) (best ProbeEval, ok bool) {
	for _, f := range candidates {
		e := s.Evaluate(f)
		if !ok || e.Gain > best.Gain {
			best, ok = e, true
		}
	}
	return best, ok
}

// AllFlows returns the candidate list 0..|rates|-1, the attacker's full
// probe vocabulary.
func (s *ProbeSelector) AllFlows() []flows.ID {
	n := len(s.model.ModelConfig().Rates)
	out := make([]flows.ID, n)
	for i := range out {
		out[i] = flows.ID(i)
	}
	return out
}

// FlowsExcept returns every flow except the listed ones — the §VI "attacker
// cannot probe f̂" candidate set.
func (s *ProbeSelector) FlowsExcept(excluded ...flows.ID) []flows.ID {
	skip := make(map[flows.ID]bool, len(excluded))
	for _, f := range excluded {
		skip[f] = true
	}
	var out []flows.ID
	for _, f := range s.AllFlows() {
		if !skip[f] {
			out = append(out, f)
		}
	}
	return out
}
