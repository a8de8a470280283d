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
	unconditional
	model0 Model       // chain with the target's rate zeroed
	dist0  markov.Dist // state distribution at T given X̂ = 0

	// seqPool recycles EvaluateSequence scratch arenas (see multiprobe.go).
	seqPool sync.Pool
	// trackerPool recycles the belief trackers posteriorAfter conditions.
	trackerPool sync.Pool
}

// unconditional is the half of a selector that the unconditional chain
// alone determines: the chain evolved T steps from the empty cache and
// the target's prior absence.
type unconditional struct {
	model   Model
	target  flows.ID
	steps   int
	pAbsent float64 // P(X̂ = 0) = e^{-λ_f̂·T·Δ}
	dist    markov.Dist
}

// evolveUnconditional checks the target and window and evolves model T
// steps from the empty cache.
func evolveUnconditional(model Model, target flows.ID, steps int) (unconditional, error) {
	cfg := model.ModelConfig()
	if err := checkTarget(cfg, target); err != nil {
		return unconditional{}, err
	}
	if steps < 1 {
		return unconditional{}, fmt.Errorf("core: probe window %d steps < 1", steps)
	}
	u := unconditional{
		model:   model,
		target:  target,
		steps:   steps,
		pAbsent: math.Exp(-cfg.Rates[target] * cfg.Delta * float64(steps)),
		dist:    model.InitialDist(),
	}
	model.EvolveInPlace(u.dist, steps)
	return u, nil
}

// condition completes u with the target-conditioned chain model0,
// evolved T steps from the empty cache.
func (u unconditional) condition(model0 Model) *ProbeSelector {
	s := &ProbeSelector{unconditional: u, model0: model0, dist0: model0.InitialDist()}
	model0.EvolveInPlace(s.dist0, u.steps)
	return s
}

// Prior is a compact selector before its target-conditioned chain: the
// unconditional chain M evolved T steps and the target's prior absence.
// Its hit probabilities are the ones the finished selector's Evaluate
// uses, so NeverViable rules probes out exactly before M₀ is built;
// Condition builds M₀ and returns the selector, without evolving M again.
type Prior struct {
	unconditional
	m *CompactModel
}

// NewPrior evolves m T steps from the empty cache for a selector on
// target.
func NewPrior(m *CompactModel, target flows.ID, steps int) (*Prior, error) {
	u, err := evolveUnconditional(m, target, steps)
	if err != nil {
		return nil, err
	}
	return &Prior{unconditional: u, m: m}, nil
}

// Condition builds the target-conditioned chain from M's own
// configuration, in the context M was built in, evolves it, and returns
// the finished selector.
func (p *Prior) Condition() (*ProbeSelector, error) {
	m0, err := NewCompactModel(p.m.ModelConfig().withoutFlow(p.target), p.m.builds)
	if err != nil {
		return nil, err
	}
	return p.condition(m0), nil
}

// NeverViable reports whether probing f is ruled out as a viable
// detector by ProbeNeverViable on its unconditional hit probability,
// whatever the conditioned chain would say.
func (p *Prior) NeverViable(f flows.ID) bool {
	return ProbeNeverViable(p.model.HitProbability(p.dist, f), p.pAbsent)
}

// NoneViable reports whether every candidate is NeverViable.
func (p *Prior) NoneViable(candidates []flows.ID) bool {
	for _, f := range candidates {
		if !p.NeverViable(f) {
			return false
		}
	}
	return true
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
	p, err := NewPrior(m, target, steps)
	if err != nil {
		return nil, err
	}
	return p.Condition()
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
func (s *unconditional) Target() flows.ID { return s.target }

// Steps returns the probe window T in steps.
func (s *unconditional) Steps() int { return s.steps }

// PAbsent returns P(X̂ = 0), the prior probability the target flow did not
// occur in the window.
func (s *unconditional) PAbsent() float64 { return s.pAbsent }

// PriorEntropy returns H(X̂) in bits.
func (s *unconditional) PriorEntropy() float64 {
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

// ProbeNeverViable is the screen lemma: a probe whose unconditional hit
// probability is pHit, for a target absent with prior probability
// pAbsent, is not a viable detector when 1 − pHit ≥ 2·pAbsent in
// float64, whatever its hit probability h0 under the target-conditioned
// chain. Evaluate's arithmetic gives J00 = pAbsent·(1 − h0) ≤ pAbsent and
// J10 = clamp01((1 − pHit) − J00) ≥ pAbsent ≥ J00, since rounding is
// monotone, so P(X̂=0 | Q_f=0) = J00/(J00 + J10) ≤ ½ (NaN when the miss
// has no mass; negative when rounding puts h0 above 1). A miss then
// never says "absent", so the probe fails DetectorViable without M₀.
func ProbeNeverViable(pHit, pAbsent float64) bool {
	return 1-pHit >= 2*pAbsent
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
	e := jointEval(s.model.HitProbability(s.dist, f), s.model0.HitProbability(s.dist0, f), s.pAbsent)
	e.Flow = f
	e.Gain = s.PriorEntropy() - stats.ConditionalEntropyBits2x2(e.Joint)
	if e.Gain < 0 {
		e.Gain = 0 // numerical noise; information gain is non-negative
	}
	return e
}

// jointEval is Evaluate's joint and posterior arithmetic: the joint
// P(X̂ = x ∧ Q_f = q) and both posteriors from pHit = P(Q_f = 1),
// hitGiven0 = P(Q_f = 1 | X̂ = 0) and pAbsent = P(X̂ = 0). The screen
// lemma (ProbeNeverViable) is a statement about this float64 arithmetic.
func jointEval(pHit, hitGiven0, pAbsent float64) ProbeEval {
	e := ProbeEval{PHit: pHit}
	e.Joint[0][1] = pAbsent * hitGiven0
	e.Joint[0][0] = pAbsent * (1 - hitGiven0)
	e.Joint[1][1] = clamp01(pHit - e.Joint[0][1])
	e.Joint[1][0] = clamp01((1 - pHit) - e.Joint[0][0])

	if pMiss := e.Joint[0][0] + e.Joint[1][0]; pMiss > 0 {
		e.PostAbsentGivenMiss = e.Joint[0][0] / pMiss
	} else {
		e.PostAbsentGivenMiss = math.NaN()
	}
	if hitMass := e.Joint[0][1] + e.Joint[1][1]; hitMass > 0 {
		e.PostPresentGivenHit = e.Joint[1][1] / hitMass
	} else {
		e.PostPresentGivenHit = math.NaN()
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
func (s *unconditional) AllFlows() []flows.ID {
	n := len(s.model.ModelConfig().Rates)
	out := make([]flows.ID, n)
	for i := range out {
		out[i] = flows.ID(i)
	}
	return out
}

// FlowsExcept returns every flow except the listed ones — the §VI "attacker
// cannot probe f̂" candidate set.
func (s *unconditional) FlowsExcept(excluded ...flows.ID) []flows.ID {
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
