package core

import (
	"fmt"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
)

// Attacker is a flow-reconnaissance strategy: it plans probe flows, then
// turns observed query outcomes (hit/miss per probe) into a verdict on
// whether the target flow occurred within the window.
type Attacker interface {
	// Name identifies the strategy in reports.
	Name() string
	// Probes returns the flows to probe, in order. It may be empty (the
	// random attacker sends nothing).
	Probes() []flows.ID
	// Decide converts the observed outcomes (outcomes[i] is whether probe
	// i hit) into a verdict: true means "target occurred".
	Decide(outcomes []bool, rng *stats.RNG) bool
}

// LossTolerant is implemented by attackers that can classify a trial in
// which some probes were lost (dropped by the network or timed out).
// lost[i] true means probe i produced no observation at all — outcomes[i]
// is meaningless for that index and must be ignored. A lost probe is an
// explicit "no observation", not a miss: a threshold classifier that
// cannot distinguish the two should fall back to Decide with the lost
// probes classified as misses, which is what the trial runner does for
// attackers that do not implement this interface.
type LossTolerant interface {
	// DecideWithLoss converts partially observed outcomes into a verdict.
	DecideWithLoss(outcomes, lost []bool, rng *stats.RNG) bool
}

// NaiveAttacker is the paper's baseline: probe the target flow itself and
// report the query result Q_f̂.
type NaiveAttacker struct {
	TargetFlow flows.ID
}

var _ Attacker = (*NaiveAttacker)(nil)

// Name implements Attacker.
func (a *NaiveAttacker) Name() string { return "naive" }

// Probes implements Attacker.
func (a *NaiveAttacker) Probes() []flows.ID { return []flows.ID{a.TargetFlow} }

// Decide implements Attacker: the verdict is the raw query outcome.
func (a *NaiveAttacker) Decide(outcomes []bool, _ *stats.RNG) bool {
	return len(outcomes) > 0 && outcomes[0]
}

// ModelAttacker probes the flow (or flow sequence) with maximal
// information gain, as computed by a ProbeSelector, and decides by
// thresholding P(X̂=1 | observations) at ½ — the decision-tree leaves of
// §V-B. For a single probe passing the paper's detector-viability filter
// this is the §VI-B rule "return the result of query f".
type ModelAttacker struct {
	name     string
	sel      *ProbeSelector
	eval     SequenceEval
	prior    float64 // P(X̂ = 1)
	singleOK ProbeEval
	isSingle bool
	pacing   Pacing
}

var (
	_ Attacker       = (*ModelAttacker)(nil)
	_ BeliefProvider = (*ModelAttacker)(nil)
	_ LossTolerant   = (*ModelAttacker)(nil)
)

// NewModelAttacker plans numProbes probes from candidates using sel.
// With numProbes == 1 it is the paper's single-query model attacker.
func NewModelAttacker(sel *ProbeSelector, candidates []flows.ID, numProbes int) (*ModelAttacker, error) {
	if numProbes < 1 {
		return nil, fmt.Errorf("core: numProbes %d < 1", numProbes)
	}
	a := &ModelAttacker{
		name:  fmt.Sprintf("model(m=%d)", numProbes),
		sel:   sel,
		prior: 1 - sel.PAbsent(),
	}
	if numProbes == 1 {
		best, ok := sel.Best(candidates)
		if !ok {
			return nil, fmt.Errorf("core: no candidate probes")
		}
		a.singleOK = best
		a.isSingle = true
		a.eval = SequenceEval{Flows: []flows.ID{best.Flow}}
		return a, nil
	}
	best, ok := sel.BestSequence(candidates, numProbes)
	if !ok {
		return nil, fmt.Errorf("core: no candidate probes")
	}
	a.eval = best
	return a, nil
}

// Name implements Attacker.
func (a *ModelAttacker) Name() string { return a.name }

// Rename overrides the attacker's reported name (for rosters that field
// several model attackers, e.g. the §VI-B restricted attacker) and
// returns the attacker for chaining.
func (a *ModelAttacker) Rename(name string) *ModelAttacker {
	a.name = name
	return a
}

// Probes implements Attacker.
func (a *ModelAttacker) Probes() []flows.ID {
	return append([]flows.ID(nil), a.eval.Flows...)
}

// Selector implements BeliefProvider.
func (a *ModelAttacker) Selector() *ProbeSelector { return a.sel }

// Decide implements Attacker.
func (a *ModelAttacker) Decide(outcomes []bool, _ *stats.RNG) bool {
	if len(outcomes) == 0 {
		return a.prior > 0.5
	}
	if a.isSingle {
		return a.singleOK.PosteriorPresent(outcomes[0]) > 0.5
	}
	return a.eval.Decide(outcomes)
}

// DecideWithLoss implements LossTolerant: lost probes contribute no
// observation. The verdict thresholds P(X̂=1 | delivered observations)
// at ½, conditioning the selector's chains on the delivered outcomes
// alone; with nothing delivered it falls back to the prior.
func (a *ModelAttacker) DecideWithLoss(outcomes, lost []bool, rng *stats.RNG) bool {
	for i := range outcomes {
		if i < len(lost) && lost[i] {
			return a.sel.posteriorAfter(a.eval.Flows, outcomes, lost) > 0.5
		}
	}
	return a.Decide(outcomes, rng)
}

// RandomAttacker is the §VI-B baseline that makes no probes and guesses
// from the prior: it declares the flow present with probability
// P(X̂ = 1) = 1 − e^{-λ_f̂·T·Δ}.
type RandomAttacker struct {
	PPresent float64
}

var _ Attacker = (*RandomAttacker)(nil)

// Name implements Attacker.
func (a *RandomAttacker) Name() string { return "random" }

// Probes implements Attacker.
func (a *RandomAttacker) Probes() []flows.ID { return nil }

// Decide implements Attacker.
func (a *RandomAttacker) Decide(_ []bool, rng *stats.RNG) bool {
	return rng.Bernoulli(a.PPresent)
}
