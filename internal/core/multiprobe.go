package core

import (
	"math"
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

// seqLevel holds one tree depth's scratch distributions: the hit/miss
// splits of both chains plus the post-probe buffers handed to the child.
// The two sibling branches are walked sequentially, so the app buffers
// are safely reused between them.
type seqLevel struct {
	hit, miss, app    markov.Dist
	hit0, miss0, app0 markov.Dist
}

type seqArena struct {
	levels []seqLevel
	screen []float64 // bestPair's screened gains, [first][second] candidate
}

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
		next := slab(3 * (n + n0))
		a.levels = append(a.levels, seqLevel{
			hit: next(n), miss: next(n), app: next(n),
			hit0: next(n0), miss0: next(n0), app0: next(n0),
		})
	}
	return a
}

// slab returns a function handing out consecutive, capacity-capped
// distributions carved from one allocation of total floats.
func slab(total int) func(size int) markov.Dist {
	buf := make([]float64, total)
	return func(size int) markov.Dist {
		d := markov.Dist(buf[:size:size])
		buf = buf[size:]
		return d
	}
}

// EvaluateSequence computes the joint distribution of (X̂, Q_{f1..fm}) by
// walking the outcome tree. Each probe conditions the state distribution
// on its observed outcome and applies the probe's cache side effect (a
// missing probe installs its covering rule; a hit refreshes it), exactly
// the incremental adjustment §V-B prescribes. The walk runs over pooled
// per-depth scratch buffers through the in-place model kernels.
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
		s.model.SplitByHitInto(d, f, lv.hit, lv.miss)
		s.model0.SplitByHitInto(d0, f, lv.hit0, lv.miss0)
		s.model.ApplyProbeInto(lv.app, lv.miss, f, false)
		s.model0.ApplyProbeInto(lv.app0, lv.miss0, f, false)
		walk(depth+1, key+"0", lv.app, lv.app0)
		s.model.ApplyProbeInto(lv.app, lv.hit, f, true)
		s.model0.ApplyProbeInto(lv.app0, lv.hit0, f, true)
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
// histogram of the build context of the selector's unconditional chain.
//
// The m = 2 search (bestPair) screens every ordered pair from its leaf
// masses and evaluates only the near-best ones exactly, yet returns
// exactly what evaluating every ordered pair with EvaluateSequence and
// keeping the first strictly larger gain would: the same pair and,
// re-evaluated, the same SequenceEval to the last bit.
func (s *ProbeSelector) BestSequence(candidates []flows.ID, m int) (SequenceEval, bool) {
	if len(candidates) == 0 || m < 1 {
		return SequenceEval{}, false
	}
	defer s.builds().obsSequenceSearch(time.Now())
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

// pairScreenMargin is how far below the best screened gain, in bits, a
// pair may screen and still be evaluated exactly. A screened gain differs
// from its pair's exact gain only by the rounding of the leaf sums
// (TestScreenedPairGainBound holds it to 1e-12), so every pair whose exact
// gain could be the largest screens within the margin of the best.
const pairScreenMargin = 1e-9

// bestPair is BestSequence's ordered two-probe search, in two passes.
//
// The screen walks each first probe's tree level once — split by the
// outcome and apply the probe's side effect, on both chains and both
// branches — and then scores every second probe from leaf masses alone: a
// leaf below the second probe's hit is its hit mass on the branch (a hit
// changes no compact state, so its apply is a copy), and the miss leaf
// holds the rest of the branch. No second-level split or apply runs.
//
// Only pairs that screen within pairScreenMargin of the best screened
// gain are then scored exactly, in candidate order, with the arithmetic
// EvaluateSequence makes at each leaf (addLeafEntropies), and the strict >
// tie-break keeps the first largest gain. Every pair whose exact gain is
// the largest is among them, so the pair chosen is the one an exhaustive
// exact search picks, and only the winner is evaluated in full.
func (s *ProbeSelector) bestPair(candidates []flows.ID) (SequenceEval, bool) {
	arena := s.arenaFor(3)
	// first holds the first probe's splits and its miss branch (app,
	// app0); the hit branch goes to hit's app buffers, and leaves is the
	// exact pass's second-probe scratch.
	first, hit, leaves := &arena.levels[0], &arena.levels[1], &arena.levels[2]
	prior := s.PriorEntropy()
	nc := len(candidates)
	arena.screen = resize(arena.screen, nc*nc)
	top := math.Inf(-1)
	for ia, a := range candidates {
		s.firstLevel(a, first, hit)
		miss, hitB := newBranchMass(first.app, first.app0), newBranchMass(hit.app, hit.app0)
		for ib, b := range candidates {
			if a == b {
				continue
			}
			g := s.screenGain(prior, b, miss, hitB)
			arena.screen[ia*nc+ib] = g
			top = max(top, g)
		}
	}

	var best [2]flows.ID
	var bestGain float64
	found := false
	for ia, a := range candidates {
		walked := false
		for ib, b := range candidates {
			if a == b || arena.screen[ia*nc+ib] < top-pairScreenMargin {
				continue
			}
			if !walked {
				s.firstLevel(a, first, hit)
				walked = true
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

// firstLevel walks probe a's tree level: first receives both chains'
// splits and, in its app buffers, the miss branch; hit's app buffers
// receive the hit branch.
func (s *ProbeSelector) firstLevel(a flows.ID, first, hit *seqLevel) {
	s.model.SplitByHitInto(s.dist, a, first.hit, first.miss)
	s.model0.SplitByHitInto(s.dist0, a, first.hit0, first.miss0)
	s.model.ApplyProbeInto(first.app, first.miss, a, false)
	s.model0.ApplyProbeInto(first.app0, first.miss0, a, false)
	s.model.ApplyProbeInto(hit.app, first.hit, a, true)
	s.model0.ApplyProbeInto(hit.app0, first.hit0, a, true)
}

// branchMass is one first-probe branch's post-probe distributions under
// both chains, with their total masses.
type branchMass struct {
	d, d0     markov.Dist
	tot, tot0 float64
}

// newBranchMass returns the branch whose distributions are d and d0.
func newBranchMass(d, d0 markov.Dist) branchMass {
	return branchMass{d: d, d0: d0, tot: d.Sum(), tot0: d0.Sum()}
}

// screenGain returns the screened gain of probing f second, below the
// first probe's miss and hit branches.
func (s *ProbeSelector) screenGain(prior float64, f flows.ID, miss, hit branchMass) float64 {
	return max(prior-(s.screenLeaves(f, miss)+s.screenLeaves(f, hit)), 0)
}

// screenLeaves returns the screened conditional-entropy terms of the two
// leaves below probe f on branch br — the miss leaf, then the hit leaf —
// from f's hit mass on the branch. The hit leaf's masses are the ones
// addLeafEntropies sums; the miss leaf's differ from its sums only by
// rounding, since installing a rule moves mass without changing it.
func (s *ProbeSelector) screenLeaves(f flows.ID, br branchMass) float64 {
	h := s.model.HitProbability(br.d, f)
	h0 := s.model0.HitProbability(br.d0, f)
	pq0 := s.pAbsent * (br.tot0 - h0)
	hCond := stats.ConditionalEntropyBits2x1(pq0, clamp01(br.tot-h-pq0))
	pq0 = s.pAbsent * h0
	return hCond + stats.ConditionalEntropyBits2x1(pq0, clamp01(h-pq0))
}

// addLeafEntropies adds to *hCond the conditional-entropy terms of the
// two leaves below probe f on the branch whose post-probe distributions
// are d and d0 — the miss leaf, then the hit leaf, as EvaluateSequence's
// walk visits them — using lv as scratch.
func (s *ProbeSelector) addLeafEntropies(hCond *float64, f flows.ID, d, d0 markov.Dist, lv *seqLevel) {
	s.model.SplitByHitInto(d, f, lv.hit, lv.miss)
	s.model0.SplitByHitInto(d0, f, lv.hit0, lv.miss0)
	s.model.ApplyProbeInto(lv.app, lv.miss, f, false)
	s.model0.ApplyProbeInto(lv.app0, lv.miss0, f, false)
	_, pq0, pq1 := s.leaf(lv.app, lv.app0)
	*hCond += stats.ConditionalEntropyBits2x1(pq0, pq1)
	s.model.ApplyProbeInto(lv.app, lv.hit, f, true)
	s.model0.ApplyProbeInto(lv.app0, lv.hit0, f, true)
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
