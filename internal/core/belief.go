package core

import (
	"sort"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/stats"
)

// Belief observability: the paper's attacker is an inference engine —
// it chooses probes by expected information gain over a Markov model
// (§V) — and this file makes its inference state inspectable. A
// BeliefTracker follows the attacker's posterior over X̂ ("the target
// flow occurred within the window") probe by probe, emitting one
// BeliefStep per observation with the realized information gain, the
// entropy still unresolved, and a snapshot of the conditioned
// switch-state distribution.

// StateProb is one entry of a Markov state-distribution snapshot.
type StateProb struct {
	// State is the model's label for the state (StateLabel). For the
	// compact model it is the cached-rule subset's canonical index: its
	// index in the full §IV-B enumeration of every subset of at most the
	// capacity, by size, then lexicographic in ascending rule IDs.
	State int `json:"state"`
	// P is the state's posterior probability.
	P float64 `json:"p"`
}

// BeliefStep is the structured record of one probe observation: what the
// attacker believed before, what it saw, and what it believes after.
type BeliefStep struct {
	// Index is the probe's position within the trial (0-based).
	Index int `json:"index"`
	// Probe is the flow probed.
	Probe flows.ID `json:"probe"`
	// Hit is the classified outcome Q_f the attacker observed.
	Hit bool `json:"hit"`
	// Lost marks a probe that produced no observation at all (dropped by
	// the network or timed out): Hit is meaningless, the posterior is
	// unchanged, and GainBits is zero. Absent from records of fault-free
	// runs.
	Lost bool `json:"lost,omitempty"`
	// Prior is P(X̂ = 1 | outcomes before this probe).
	Prior float64 `json:"prior"`
	// Posterior is P(X̂ = 1 | outcomes including this probe).
	Posterior float64 `json:"posterior"`
	// GainBits is the realized information gain of this observation in
	// bits: H(prior) − H(posterior). Unlike the expected gain that drove
	// probe selection it can be negative — a surprising outcome can
	// leave the attacker less certain than before.
	GainBits float64 `json:"gainBits"`
	// EntropyBits is the entropy remaining about X̂ after this probe,
	// H(posterior).
	EntropyBits float64 `json:"entropyBits"`
	// PathProb is P(observing this outcome prefix) under the attacker's
	// model — small values flag trials the model considered unlikely.
	PathProb float64 `json:"pathProb"`
	// TopStates is the (normalized) outcome-conditioned switch-state
	// distribution, truncated to the most probable states.
	TopStates []StateProb `json:"topStates,omitempty"`
}

// BeliefTrackerTopK is the number of states retained in each
// BeliefStep's state-distribution snapshot.
const BeliefTrackerTopK = 8

// BeliefTracker follows a selector's posterior over X̂ through a
// sequence of observed probe outcomes. It applies the conditioning step
// EvaluateSequence applies during planning — split both chains on the
// observed outcome, apply the probe's cache side effect, read the
// posterior — through the same in-place model kernels, over the outcomes
// actually seen at run time and into distributions the tracker owns.
type BeliefTracker struct {
	sel         *ProbeSelector
	d           markov.Dist // unconditional dist, mass = P(outcome prefix)
	d0          markov.Dist // target-absent dist, mass = P(prefix | X̂=0)
	hit, miss   markov.Dist // d split by the latest probe's outcome
	hit0, miss0 markov.Dist // d0 split likewise
	post        float64     // current P(X̂=1 | prefix)
	n           int         // probes observed so far
}

// NewBeliefTracker starts a tracker at the selector's prior (no probes
// observed yet).
func (s *ProbeSelector) NewBeliefTracker() *BeliefTracker {
	n, n0 := len(s.dist), len(s.dist0)
	next := slab(3 * (n + n0))
	t := &BeliefTracker{
		sel: s,
		d:   next(n), hit: next(n), miss: next(n),
		d0: next(n0), hit0: next(n0), miss0: next(n0),
	}
	t.reset()
	return t
}

// reset returns the tracker to the selector's prior.
func (t *BeliefTracker) reset() {
	copy(t.d, t.sel.dist)
	copy(t.d0, t.sel.dist0)
	t.post = 1 - t.sel.pAbsent
	t.n = 0
}

// posteriorAfter returns P(X̂ = 1 | the delivered outcomes of probes):
// outcomes[i] is probe i's classified result unless lost[i] marks it as
// never observed. It conditions a tracker recycled through the
// selector's pool and records no BeliefStep, so a warm call allocates
// nothing.
func (s *ProbeSelector) posteriorAfter(probes []flows.ID, outcomes, lost []bool) float64 {
	t, _ := s.trackerPool.Get().(*BeliefTracker)
	if t == nil {
		t = s.NewBeliefTracker()
	} else {
		t.reset()
	}
	for i, hit := range outcomes {
		if i >= len(probes) {
			break
		}
		if i < len(lost) && lost[i] {
			continue // a lost probe leaves the belief unchanged
		}
		t.condition(probes[i], hit)
	}
	post := t.post
	s.trackerPool.Put(t)
	return post
}

// Prior returns the tracker's current belief P(X̂ = 1 | outcomes so
// far) — the prior of the next probe.
func (t *BeliefTracker) Prior() float64 { return t.post }

// condition folds one classified probe outcome into the belief state and
// returns P(outcome prefix ∧ this outcome).
func (t *BeliefTracker) condition(f flows.ID, hit bool) (pq float64) {
	s := t.sel
	s.model.SplitByHitInto(t.d, f, t.hit, t.miss)
	s.model0.SplitByHitInto(t.d0, f, t.hit0, t.miss0)
	bd, bd0 := t.miss, t.miss0
	if hit {
		bd, bd0 = t.hit, t.hit0
	}
	pq = bd.Sum()
	pq0 := s.pAbsent * bd0.Sum() // P(X̂=0 ∧ prefix ∧ outcome)
	t.post = 1 - s.pAbsent       // prior fallback for impossible paths
	if pq > 0 {
		t.post = clamp01(pq-pq0) / pq
	}
	s.model.ApplyProbeInto(t.d, bd, f, hit)
	s.model0.ApplyProbeInto(t.d0, bd0, f, hit)
	t.n++
	return pq
}

// Observe folds one classified probe outcome into the belief state and
// returns the resulting BeliefStep.
func (t *BeliefTracker) Observe(f flows.ID, hit bool) BeliefStep {
	prior := t.post
	pq := t.condition(f, hit)
	return BeliefStep{
		Index:       t.n - 1,
		Probe:       f,
		Hit:         hit,
		Prior:       prior,
		Posterior:   t.post,
		GainBits:    stats.BinaryEntropy(prior) - stats.BinaryEntropy(t.post),
		EntropyBits: stats.BinaryEntropy(t.post),
		PathProb:    pq,
		TopStates:   t.topStates(),
	}
}

// topStates returns the snapshot of the tracker's unconditional state
// distribution, its states labelled by the model.
func (t *BeliefTracker) topStates() []StateProb {
	top := TopStates(t.d, BeliefTrackerTopK)
	for i := range top {
		top[i].State = t.sel.model.StateLabel(top[i].State)
	}
	return top
}

// ObserveLost folds a lost probe into the belief state: the probe was
// sent but no reply ever came back, so the attacker learned nothing.
// The posterior is unchanged, the realized gain is zero, and — because
// a dropped probe never reaches the switch's flow table — no cache side
// effect is applied to the conditioned state distributions. The step is
// still returned (with Lost set) so recordings show where the trial's
// observations have holes.
func (t *BeliefTracker) ObserveLost(f flows.ID) BeliefStep {
	t.n++
	return BeliefStep{
		Index:       t.n - 1,
		Probe:       f,
		Lost:        true,
		Prior:       t.post,
		Posterior:   t.post,
		GainBits:    0,
		EntropyBits: stats.BinaryEntropy(t.post),
		PathProb:    t.d.Sum(),
		TopStates:   t.topStates(),
	}
}

// TopStates returns the k most probable states of d, by index, normalized
// to the distribution's mass (nil for zero-mass or empty distributions).
// Ties break toward the lower state index so snapshots are deterministic.
func TopStates(d markov.Dist, k int) []StateProb {
	total := d.Sum()
	if total <= 0 || k <= 0 {
		return nil
	}
	idx := make([]int, 0, len(d))
	for i, p := range d {
		if p > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if d[idx[a]] != d[idx[b]] {
			return d[idx[a]] > d[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]StateProb, len(idx))
	for i, s := range idx {
		out[i] = StateProb{State: s, P: d[s] / total}
	}
	return out
}

// BeliefProvider is implemented by attackers whose verdicts come from a
// fitted model; the trial runner uses it to attach a BeliefTracker and
// record per-probe belief steps.
type BeliefProvider interface {
	// Selector exposes the probe selector (the fitted model chains) the
	// attacker plans and decides with.
	Selector() *ProbeSelector
}
