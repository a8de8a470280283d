package core

// The exact §IV-A model, kept as the oracle the compact model, the probe
// selector and the continuous-time switch are checked against. Its state
// space grows as BasicStateCount describes (≈5.9×10⁷ states for 10
// rules), so no production path builds it.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/rules"
)

var _ Model = (*BasicModel)(nil)

// basicEntry is one (rule, remaining steps) slot of a basic-model state.
type basicEntry struct {
	rule int
	exp  int
}

// encodeBasic renders a cache state as the canonical key "j:e|j:e|…",
// front slot first.
func encodeBasic(slots []basicEntry) string {
	var b strings.Builder
	for i, e := range slots {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(e.rule))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(e.exp))
	}
	return b.String()
}

// encode renders slots as a state key, canonicalizing (sorting by rule
// ID) when the model drops cache order.
func (m *BasicModel) encode(slots []basicEntry) string {
	if m.canonical {
		sorted := make([]basicEntry, len(slots))
		copy(sorted, slots)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].rule < sorted[b].rule })
		return encodeBasic(sorted)
	}
	return encodeBasic(slots)
}

// decodeBasic parses a state key produced by encodeBasic.
func decodeBasic(key string) []basicEntry {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, "|")
	out := make([]basicEntry, len(parts))
	for i, p := range parts {
		colon := strings.IndexByte(p, ':')
		r, _ := strconv.Atoi(p[:colon])
		e, _ := strconv.Atoi(p[colon+1:])
		out[i] = basicEntry{rule: r, exp: e}
	}
	return out
}

// BasicModel is the exact Markov chain of §IV-A: states are ordered cache
// contents with remaining timeouts; transitions are flow arrivals (hit or
// miss+install+evict), timeouts, and the null event.
type BasicModel struct {
	cfg    Config
	sr     []float64      // per-step rates λ_f·Δ
	states []string       // index → state key
	index  map[string]int // state key → index
	matrix *markov.Sparse // transition probabilities over indices
	// frozen is the CSR snapshot of the transition matrix (evolve
	// kernel), compiled lazily on the first Evolve so build-only users
	// (state counting, the ordered-vs-canonical ablation) don't pay for
	// it.
	frozen     *markov.CSR
	freezeOnce sync.Once
	wsPool     sync.Pool
	// ruleMask[i] is the bitmask of rules cached in state i.
	ruleMask []uint64
	// canonical states drop cache order (see NewBasicModelCanonical).
	canonical bool
}

// NewBasicModel explores the state space reachable from the empty cache
// and builds the transition matrix. maxStates bounds the exploration; the
// state count grows as BasicStateCount describes, so callers must keep
// configurations small (the motivation for the compact model).
func NewBasicModel(cfg Config, maxStates int) (*BasicModel, error) {
	return newBasicModel(cfg, maxStates, false)
}

// NewBasicModelCanonical builds the basic model over order-canonicalized
// states: cache order appears in the paper's state definition (the
// |Rules'|! factor of §IV-A2) but match, eviction, and timeout behaviour
// never depend on it, so merging permutations yields an equivalent chain.
// This is the "ordered vs canonical" ablation of DESIGN.md; it shows the
// reachable spaces nearly coincide — the clocks already encode recency, so
// the |Rules'|! permutations the closed form counts are mostly
// unreachable.
func NewBasicModelCanonical(cfg Config, maxStates int) (*BasicModel, error) {
	return newBasicModel(cfg, maxStates, true)
}

func newBasicModel(cfg Config, maxStates int, canonical bool) (*BasicModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rules.Len() > 64 {
		return nil, fmt.Errorf("core: basic model supports ≤ 64 rules, got %d", cfg.Rules.Len())
	}
	m := &BasicModel{cfg: cfg, sr: cfg.stepRates(), canonical: canonical}
	if err := m.explore(maxStates); err != nil {
		return nil, err
	}
	m.ruleMask = make([]uint64, len(m.states))
	for i, key := range m.states {
		var mask uint64
		for _, e := range decodeBasic(key) {
			if e.exp > 0 {
				// A zero-clock rule has reached its expiry boundary; for
				// probing purposes it is already gone (the chain removes
				// it before any other event can occur).
				mask |= 1 << uint(e.rule)
			}
		}
		m.ruleMask[i] = mask
	}
	if err := m.matrix.CheckStochastic(1e-9); err != nil {
		return nil, err
	}
	n := len(m.states)
	m.wsPool.New = func() any { return markov.NewWorkspace(n) }
	return m, nil
}

// basicTransition is one outgoing edge of a basic-model state.
type basicTransition struct {
	to string
	p  float64
}

// explore breadth-first enumerates the states reachable from the empty
// cache and assembles the transition matrix; reaching more than
// maxStates states is an error.
func (m *BasicModel) explore(maxStates int) error {
	ct := newCoverTable(m.cfg.Rules, len(m.cfg.Rates))
	var w eventWeights
	m.states = []string{""}
	m.index = map[string]int{"": 0}
	var rows [][]basicTransition
	for i := 0; i < len(m.states); i++ {
		out := m.transitions(m.states[i], ct, &w)
		for _, tr := range out {
			if _, ok := m.index[tr.to]; !ok {
				if len(m.states) >= maxStates {
					return fmt.Errorf("basic model: reachable state space exceeds limit %d", maxStates)
				}
				m.index[tr.to] = len(m.states)
				m.states = append(m.states, tr.to)
			}
		}
		rows = append(rows, out)
	}
	// mergeTransitions leaves each row's successors distinct, so every
	// nonzero edge is a new entry.
	m.matrix = markov.NewSparse(len(m.states))
	for from, out := range rows {
		for _, tr := range out {
			if tr.p != 0 {
				m.matrix.Append(from, m.index[tr.to], tr.p)
			}
		}
	}
	return nil
}

// transitions enumerates the successor states of key with normalized
// probabilities, per §IV-A1. The event weights come from the cover-table
// kernel ct into the caller's scratch w.
func (m *BasicModel) transitions(key string, ct *coverTable, w *eventWeights) []basicTransition {
	slots := decodeBasic(key)

	// Timeout takes priority: a zero-clock state has exactly one
	// transition, removing the deepest zero-clock rule.
	if idx := deepestZero(slots); idx >= 0 {
		next := make([]basicEntry, 0, len(slots)-1)
		next = append(next, slots[:idx]...)
		next = append(next, slots[idx+1:]...)
		return []basicTransition{{to: m.encode(next), p: 1}}
	}

	var cached uint64
	for _, e := range slots {
		cached |= 1 << uint(e.rule)
	}
	computeEventWeights(ct, m.sr, cached, w)

	var out []basicTransition
	total := w.null
	// Null event: all clocks decrement.
	out = append(out, basicTransition{to: m.encode(decrementAll(slots)), p: w.null})
	for j := 0; j < m.cfg.Rules.Len(); j++ {
		// Emit an event whenever rule j has relevant flows, even at zero
		// rate: the zero-probability edge contributes nothing to the
		// chain but registers the successor state, which ApplyProbe needs
		// when the attacker probes a zero-rate flow (e.g. the target flow
		// in the conditioned chain).
		if w.relevant&(1<<uint(j)) == 0 {
			continue
		}
		var next []basicEntry
		if cached&(1<<uint(j)) != 0 {
			next = m.applyHit(slots, j)
		} else {
			next = m.applyMiss(slots, j)
		}
		out = append(out, basicTransition{to: m.encode(next), p: w.arrival[j]})
		total += w.arrival[j]
	}
	// Normalize (§IV-A1: outgoing probabilities must sum to one).
	for i := range out {
		out[i].p /= total
	}
	return mergeTransitions(out)
}

// deepestZero returns the largest index holding a zero clock, or -1.
func deepestZero(slots []basicEntry) int {
	idx := -1
	for i, e := range slots {
		if e.exp == 0 {
			idx = i
		}
	}
	return idx
}

func decrementAll(slots []basicEntry) []basicEntry {
	out := make([]basicEntry, len(slots))
	for i, e := range slots {
		out[i] = basicEntry{rule: e.rule, exp: e.exp - 1}
	}
	return out
}

// applyHit implements "flow arrival with covering rule in cache" for the
// highest-priority cached rule j covering the arrived flow: j moves to the
// front with a reset clock (idle) or decremented clock (hard); every other
// clock decrements.
func (m *BasicModel) applyHit(slots []basicEntry, j int) []basicEntry {
	r := m.cfg.Rules.Rule(j)
	out := make([]basicEntry, 0, len(slots))
	front := basicEntry{rule: j}
	for _, e := range slots {
		if e.rule == j {
			if r.Kind == rules.HardTimeout {
				front.exp = e.exp - 1
			} else {
				front.exp = r.Timeout
			}
			continue
		}
		out = append(out, basicEntry{rule: e.rule, exp: e.exp - 1})
	}
	return append([]basicEntry{front}, out...)
}

// applyMiss implements "flow arrival with no covering rule in cache": rule
// j installs at the front with a full clock, evicting the smallest
// remaining clock if the cache is at capacity; surviving clocks decrement.
func (m *BasicModel) applyMiss(slots []basicEntry, j int) []basicEntry {
	work := slots
	if len(work) >= m.cfg.CacheSize {
		victim, best := -1, 0
		for i, e := range work {
			if victim < 0 || e.exp < best {
				victim, best = i, e.exp
			}
		}
		trimmed := make([]basicEntry, 0, len(work)-1)
		trimmed = append(trimmed, work[:victim]...)
		trimmed = append(trimmed, work[victim+1:]...)
		work = trimmed
	}
	out := make([]basicEntry, 0, len(work)+1)
	out = append(out, basicEntry{rule: j, exp: m.cfg.Rules.Rule(j).Timeout})
	for _, e := range work {
		out = append(out, basicEntry{rule: e.rule, exp: e.exp - 1})
	}
	return out
}

// mergeTransitions coalesces duplicate targets (two events can map to the
// same successor state).
func mergeTransitions(in []basicTransition) []basicTransition {
	seen := make(map[string]int, len(in))
	out := in[:0]
	for _, tr := range in {
		if i, ok := seen[tr.to]; ok {
			out[i].p += tr.p
			continue
		}
		seen[tr.to] = len(out)
		out = append(out, tr)
	}
	return out
}

// NumStates returns the size of the reachable state space.
func (m *BasicModel) NumStates() int { return len(m.states) }

// StateLabel labels a state by its index.
func (m *BasicModel) StateLabel(i int) int { return i }

// StateMask returns the cached-rule bitmask of state i (rules at their
// expiry boundary count as already evicted, matching HitProbability).
// Together with CompactModel.StateMask it lets conformance checks project
// both chains onto the same observable — which rules are cached — and
// compare them to each other and to empirical table occupancy.
func (m *BasicModel) StateMask(i int) uint64 { return m.ruleMask[i] }

// InitialDist returns the point distribution on the empty cache.
func (m *BasicModel) InitialDist() markov.Dist {
	return markov.PointDist(len(m.states), m.index[""])
}

// EvolveInPlace advances d in place by steps (Eqn 8) via a pooled
// workspace (zero allocation once warm); the frozen CSR kernel is
// bit-identical to the reference Sparse.Evolve. Safe for concurrent use.
func (m *BasicModel) EvolveInPlace(d markov.Dist, steps int) {
	m.freezeOnce.Do(func() { m.frozen = m.matrix.Freeze() })
	ws := m.wsPool.Get().(*markov.Workspace)
	m.frozen.EvolveInPlace(ws, d, steps)
	m.wsPool.Put(ws)
}

// HitProbability returns P(Q_f = 1) under d: the mass of states caching at
// least one rule that covers f.
func (m *BasicModel) HitProbability(d markov.Dist, f flows.ID) float64 {
	var coverMask uint64
	for j := 0; j < m.cfg.Rules.Len(); j++ {
		if m.cfg.Rules.Rule(j).Cover.Contains(f) {
			coverMask |= 1 << uint(j)
		}
	}
	return d.MassWhere(func(i int) bool { return m.ruleMask[i]&coverMask != 0 })
}

// CachedProbability returns the probability that rule j is cached under d.
func (m *BasicModel) CachedProbability(d markov.Dist, j int) float64 {
	bit := uint64(1) << uint(j)
	return d.MassWhere(func(i int) bool { return m.ruleMask[i]&bit != 0 })
}

// ModelConfig returns the model's configuration.
func (m *BasicModel) ModelConfig() Config { return m.cfg }

// coverMask returns the bitmask of rules covering f.
func (m *BasicModel) coverMask(f flows.ID) uint64 {
	var cover uint64
	for j := 0; j < m.cfg.Rules.Len(); j++ {
		if m.cfg.Rules.Rule(j).Cover.Contains(f) {
			cover |= 1 << uint(j)
		}
	}
	return cover
}

// SplitByHitInto partitions d by whether probing f hits, writing into
// hit and miss, which are fully overwritten.
func (m *BasicModel) SplitByHitInto(d markov.Dist, f flows.ID, hit, miss markov.Dist) {
	cover := m.coverMask(f)
	clear(hit)
	clear(miss)
	for i, p := range d {
		if p == 0 {
			continue
		}
		if m.ruleMask[i]&cover != 0 {
			hit[i] = p
		} else {
			miss[i] = p
		}
	}
}

// ApplyProbeInto implements the probe side effect exactly, writing into
// dst, which is fully overwritten and must not alias d: a hit moves the
// matched rule to the front with a refreshed clock; a miss installs the
// covering rule, evicting the smallest remaining clock if full. If a
// resulting state lies outside the explored space (possible only for
// zero-rate probe flows whose install transition the chain never takes),
// the mass stays in place as a conservative approximation.
func (m *BasicModel) ApplyProbeInto(dst, d markov.Dist, f flows.ID, hit bool) {
	clear(dst)
	for i, p := range d {
		if p == 0 {
			continue
		}
		slots := resolveTimeouts(decodeBasic(m.states[i]))
		var next []basicEntry
		if hit {
			j, matched := m.matchCached(slots, f)
			if !matched {
				dst[i] += p
				continue
			}
			next = m.applyHit(slots, j)
		} else {
			j, covered := m.cfg.Rules.HighestCovering(f)
			if !covered {
				dst[i] += p
				continue
			}
			next = m.applyMiss(slots, j)
		}
		if to, ok := m.index[m.encode(next)]; ok {
			dst[to] += p
		} else {
			dst[i] += p
		}
	}
}

// resolveTimeouts drops zero-clock entries: the state the chain's pending
// timeout transitions would reach before any probe effect applies.
func resolveTimeouts(slots []basicEntry) []basicEntry {
	out := slots[:0:0]
	for _, e := range slots {
		if e.exp > 0 {
			out = append(out, e)
		}
	}
	return out
}

// matchCached returns the highest-priority cached rule covering f.
func (m *BasicModel) matchCached(slots []basicEntry, f flows.ID) (int, bool) {
	best, bestPrio := -1, 0
	for _, e := range slots {
		r := m.cfg.Rules.Rule(e.rule)
		if r.Cover.Contains(f) && (best < 0 || r.Priority > bestPrio) {
			best, bestPrio = e.rule, r.Priority
		}
	}
	return best, best >= 0
}

// NewProbeSelector evolves both chains T steps from the empty cache and
// returns a selector for inferring whether target occurred within those T
// steps; unlike the production constructors it accepts any Model pair,
// such as the basic model and its target-conditioned twin.
func NewProbeSelector(model, model0 Model, target flows.ID, steps int) (*ProbeSelector, error) {
	u, err := evolveUnconditional(model, target, steps)
	if err != nil {
		return nil, err
	}
	return u.condition(model0), nil
}
