package core

import (
	"math"
	"strings"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/stats"
)

// SequenceEval is the evaluation of an ordered, non-adaptively chosen
// sequence of probe flows (§V-B). Outcomes are keyed by a bitstring such
// as "10": probe 1 hit, probe 2 missed.
type SequenceEval struct {
	// Flows are the probes in send order.
	Flows []flows.ID
	// Gain is IG(X̂ | Q_{f1}, …, Q_{fm}) in bits.
	Gain float64
	// PathProb[outcomes] is P(Q⃗ = outcomes).
	PathProb map[string]float64
	// PosteriorPresent[outcomes] is P(X̂ = 1 | Q⃗ = outcomes) — the leaves
	// of the paper's decision tree.
	PosteriorPresent map[string]float64
}

// Decide returns the decision-tree verdict for observed outcomes: present
// iff the posterior exceeds ½.
func (e SequenceEval) Decide(outcomes []bool) bool {
	return e.PosteriorPresent[outcomeKey(outcomes)] > 0.5
}

// PosteriorAfter returns P(X̂ = 1 | Q⃗ = outcomes) for any observed
// outcome prefix: full-length outcome vectors read the decision-tree
// leaf directly, shorter prefixes marginalize over the leaves below
// them (P(X̂=1 | prefix) = Σ_leaf P(leaf)·P(X̂=1 | leaf) / P(prefix)).
// ok is false when the prefix is outside the evaluated tree (longer
// than the planned sequence, or a zero-probability branch).
func (e SequenceEval) PosteriorAfter(outcomes []bool) (post float64, ok bool) {
	key := outcomeKey(outcomes)
	if post, ok = e.PosteriorPresent[key]; ok {
		return post, true
	}
	var mass, present float64
	for leaf, p := range e.PathProb {
		if strings.HasPrefix(leaf, key) {
			mass += p
			present += p * e.PosteriorPresent[leaf]
		}
	}
	if mass <= 0 {
		return 0, false
	}
	return present / mass, true
}

func outcomeKey(outcomes []bool) string {
	b := make([]byte, len(outcomes))
	for i, hit := range outcomes {
		if hit {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// inPlaceProber is implemented by models providing allocation-free probe
// kernels (CompactModel). Other models fall back to the allocating path.
type inPlaceProber interface {
	SplitByHitInto(d markov.Dist, f flows.ID, hit, miss markov.Dist)
	ApplyProbeInto(dst, d markov.Dist, f flows.ID, hit bool)
}

func splitInto(m Model, d markov.Dist, f flows.ID, hit, miss markov.Dist) {
	if ip, ok := m.(inPlaceProber); ok {
		ip.SplitByHitInto(d, f, hit, miss)
		return
	}
	h, ms := m.SplitByHit(d, f)
	copy(hit, h)
	copy(miss, ms)
}

func applyInto(m Model, dst, d markov.Dist, f flows.ID, hit bool) {
	if ip, ok := m.(inPlaceProber); ok {
		ip.ApplyProbeInto(dst, d, f, hit)
		return
	}
	copy(dst, m.ApplyProbe(d, f, hit))
}

// seqLevel holds one tree depth's scratch distributions: the hit/miss
// splits of both chains plus the post-probe buffers handed to the child.
// The two sibling branches are walked sequentially, so the app buffers
// are safely reused between them.
type seqLevel struct {
	hit, miss, app    markov.Dist
	hit0, miss0, app0 markov.Dist
}

type seqArena struct{ levels []seqLevel }

// arenaFor returns a per-call arena with at least depth levels sized for
// the selector's chains, recycled through a pool so BestSequence's
// candidate scans stop allocating per tree node.
func (s *ProbeSelector) arenaFor(depth int) *seqArena {
	a, _ := s.seqPool.Get().(*seqArena)
	if a == nil {
		a = &seqArena{}
	}
	n, n0 := len(s.dist), len(s.dist0)
	for len(a.levels) < depth {
		buf := make([]float64, 3*(n+n0))
		next := func(size int) markov.Dist {
			d := markov.Dist(buf[:size:size])
			buf = buf[size:]
			return d
		}
		a.levels = append(a.levels, seqLevel{
			hit: next(n), miss: next(n), app: next(n),
			hit0: next(n0), miss0: next(n0), app0: next(n0),
		})
	}
	return a
}

// EvaluateSequence computes the joint distribution of (X̂, Q_{f1..fm}) by
// walking the outcome tree. Each probe conditions the state distribution
// on its observed outcome and applies the probe's cache side effect (a
// missing probe installs its covering rule; a hit refreshes it), exactly
// the incremental adjustment §V-B prescribes. The walk runs over pooled
// per-depth scratch buffers through the in-place model kernels — the
// former implementation cloned four distributions per tree node.
func (s *ProbeSelector) EvaluateSequence(fs []flows.ID) SequenceEval {
	eval := SequenceEval{
		Flows:            append([]flows.ID(nil), fs...),
		PathProb:         make(map[string]float64, 1<<uint(len(fs))),
		PosteriorPresent: make(map[string]float64, 1<<uint(len(fs))),
	}
	var hCond float64
	arena := s.arenaFor(len(fs))

	var walk func(depth int, key string, d, d0 markov.Dist)
	walk = func(depth int, key string, d, d0 markov.Dist) {
		if depth == len(fs) {
			pq, pq0, pq1 := s.leaf(d, d0)
			eval.PathProb[key] = pq
			if pq > 0 {
				eval.PosteriorPresent[key] = pq1 / pq
			} else {
				eval.PosteriorPresent[key] = 1 - s.pAbsent
			}
			hCond += stats.ConditionalEntropyBits([][]float64{{pq0}, {pq1}})
			return
		}
		f := fs[depth]
		lv := &arena.levels[depth]
		splitInto(s.model, d, f, lv.hit, lv.miss)
		splitInto(s.model0, d0, f, lv.hit0, lv.miss0)
		applyInto(s.model, lv.app, lv.miss, f, false)
		applyInto(s.model0, lv.app0, lv.miss0, f, false)
		walk(depth+1, key+"0", lv.app, lv.app0)
		applyInto(s.model, lv.app, lv.hit, f, true)
		applyInto(s.model0, lv.app0, lv.hit0, f, true)
		walk(depth+1, key+"1", lv.app, lv.app0)
	}
	walk(0, "", s.dist, s.dist0)
	s.seqPool.Put(arena)

	eval.Gain = s.PriorEntropy() - hCond
	if eval.Gain < 0 {
		eval.Gain = 0
	}
	return eval
}

// leaf returns a decision-tree leaf's probability P(Q⃗ = leaf) and its
// joint masses P(X̂=0 ∧ Q⃗ = leaf) and P(X̂=1 ∧ Q⃗ = leaf), from the
// post-probe distributions d and d0 of the two chains at the leaf.
func (s *ProbeSelector) leaf(d, d0 markov.Dist) (pq, pq0, pq1 float64) {
	pq = d.Sum()
	pq0 = s.pAbsent * d0.Sum()
	return pq, pq0, clamp01(pq - pq0)
}

// BestSequence selects m probes from candidates with maximal information
// gain. For m ≤ 2 it searches ordered sequences exhaustively (the paper's
// two-query attacker); for larger m it extends the best sequence greedily,
// one probe per round. Each search is timed into the sequence_search_ms
// histogram when telemetry is on.
//
// The m = 2 search (bestPair) shares each first probe's tree level across
// every second probe, yet returns exactly what evaluating every ordered
// pair with EvaluateSequence and keeping the first strictly larger gain
// would: the same pair and, re-evaluated, the same SequenceEval to the
// last bit.
func (s *ProbeSelector) BestSequence(candidates []flows.ID, m int) (SequenceEval, bool) {
	if len(candidates) == 0 || m < 1 {
		return SequenceEval{}, false
	}
	defer obsSequenceSearch(time.Now())
	if m == 1 {
		return s.bestOver(sequencesOfOne(candidates))
	}
	if m == 2 {
		return s.bestPair(candidates)
	}
	// Greedy extension.
	best, _ := s.bestOver(sequencesOfOne(candidates))
	for len(best.Flows) < m {
		var round [][]flows.ID
		for _, f := range candidates {
			if containsFlow(best.Flows, f) {
				continue
			}
			round = append(round, append(append([]flows.ID(nil), best.Flows...), f))
		}
		if len(round) == 0 {
			break
		}
		next, ok := s.bestOver(round)
		if !ok || next.Gain <= best.Gain+1e-15 {
			break // no probe adds information
		}
		best = next
	}
	return best, true
}

// bestPair is BestSequence's exhaustive ordered two-probe search. It
// walks each first probe's tree level once — split by the outcome and
// apply the probe's side effect, on both chains and both branches — then
// reuses that level for every second probe. A pair's gain is summed
// without building its outcome maps or keys: each leaf makes exactly the
// floating-point operations EvaluateSequence makes (the leaf sums, then
// ConditionalEntropyBits' steps), folded into the conditional entropy in
// leaf order "00", "01", "10", "11". So every gain is bit-identical to
// EvaluateSequence's, the candidate order and the strict > tie-break
// select the pair bestOver would, and only the winner is evaluated in
// full.
func (s *ProbeSelector) bestPair(candidates []flows.ID) (SequenceEval, bool) {
	arena := s.arenaFor(3)
	// first holds the first probe's splits and its miss branch (app,
	// app0); the hit branch goes to hit's app buffers, and leaves is the
	// second probe's scratch.
	first, hit, leaves := &arena.levels[0], &arena.levels[1], &arena.levels[2]
	prior := s.PriorEntropy()
	var best [2]flows.ID
	var bestGain float64
	found := false
	for _, a := range candidates {
		splitInto(s.model, s.dist, a, first.hit, first.miss)
		splitInto(s.model0, s.dist0, a, first.hit0, first.miss0)
		applyInto(s.model, first.app, first.miss, a, false)
		applyInto(s.model0, first.app0, first.miss0, a, false)
		applyInto(s.model, hit.app, first.hit, a, true)
		applyInto(s.model0, hit.app0, first.hit0, a, true)
		for _, b := range candidates {
			if a == b {
				continue
			}
			var hCond float64
			s.addLeafEntropies(&hCond, b, first.app, first.app0, leaves)
			s.addLeafEntropies(&hCond, b, hit.app, hit.app0, leaves)
			gain := prior - hCond
			if gain < 0 {
				gain = 0
			}
			if !found || gain > bestGain {
				best, bestGain, found = [2]flows.ID{a, b}, gain, true
			}
		}
	}
	s.seqPool.Put(arena)
	if !found {
		return SequenceEval{}, false
	}
	return s.EvaluateSequence(best[:]), true
}

// addLeafEntropies adds to *hCond the conditional-entropy terms of the
// two leaves below probe f on the branch whose post-probe distributions
// are d and d0 — the miss leaf, then the hit leaf, as EvaluateSequence's
// walk visits them — using lv as scratch.
func (s *ProbeSelector) addLeafEntropies(hCond *float64, f flows.ID, d, d0 markov.Dist, lv *seqLevel) {
	splitInto(s.model, d, f, lv.hit, lv.miss)
	splitInto(s.model0, d0, f, lv.hit0, lv.miss0)
	applyInto(s.model, lv.app, lv.miss, f, false)
	applyInto(s.model0, lv.app0, lv.miss0, f, false)
	_, pq0, pq1 := s.leaf(lv.app, lv.app0)
	*hCond += stats.ConditionalEntropyBits2x1(pq0, pq1)
	applyInto(s.model, lv.app, lv.hit, f, true)
	applyInto(s.model0, lv.app0, lv.hit0, f, true)
	_, pq0, pq1 = s.leaf(lv.app, lv.app0)
	*hCond += stats.ConditionalEntropyBits2x1(pq0, pq1)
}

func (s *ProbeSelector) bestOver(seqs [][]flows.ID) (SequenceEval, bool) {
	var best SequenceEval
	found := false
	for _, fs := range seqs {
		e := s.EvaluateSequence(fs)
		if !found || e.Gain > best.Gain {
			best, found = e, true
		}
	}
	return best, found
}

func sequencesOfOne(candidates []flows.ID) [][]flows.ID {
	out := make([][]flows.ID, len(candidates))
	for i, f := range candidates {
		out[i] = []flows.ID{f}
	}
	return out
}

func containsFlow(fs []flows.ID, f flows.ID) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

// SequenceGainAtLeastSingle is a diagnostic: the best pair's gain can never
// be below the best single probe's gain when the pair search includes that
// probe. It returns the two gains for assertion in tests and benchmarks.
func (s *ProbeSelector) SequenceGainAtLeastSingle(candidates []flows.ID) (single, pair float64) {
	b1, ok1 := s.Best(candidates)
	if ok1 {
		single = b1.Gain
	}
	b2, ok2 := s.BestSequence(candidates, 2)
	if ok2 {
		pair = b2.Gain
	}
	if math.IsNaN(pair) {
		pair = 0
	}
	return single, pair
}
