package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/testutil"
	"flowrecon/internal/workload"
)

// The tests in this file hold the model-build kernels to the clone-based
// path of build_ref_test.go, bit for bit: the cover-table γ and event
// weights, the estimator's ordering, the assembled chain at several
// worker counts, and the shared-prefix two-probe search.

// buildCase is one configuration of the bit-identity tests.
type buildCase struct {
	name string
	cfg  Config
}

// tiedConfig draws a rule set whose disjoint rules share priorities, as
// rules.Set allows: numRules−2 residue-class rules (flow f belongs to
// class f mod (numRules−2)) on three shared priority levels, under two
// overlapping wide rules of distinct higher priorities.
func tiedConfig(tb testing.TB, numFlows, numRules, cache int, delta float64, seed int64) Config {
	tb.Helper()
	rng := stats.NewRNG(seed)
	k := numRules - 2
	timeouts := rules.DefaultGenerateConfig(delta).Timeouts
	rs := make([]rules.Rule, 0, numRules)
	for i := 0; i < k; i++ {
		var cover flows.Set
		for f := i; f < numFlows; f += k {
			cover.Add(flows.ID(f))
		}
		rs = append(rs, rules.Rule{Cover: cover, Priority: 1 + rng.Intn(3), Timeout: timeouts[rng.Intn(len(timeouts))]})
	}
	var even, low flows.Set
	for f := 0; f < numFlows; f++ {
		if f%2 == 0 {
			even.Add(flows.ID(f))
		}
		if f < numFlows/2 {
			low.Add(flows.ID(f))
		}
	}
	rs = append(rs,
		rules.Rule{Cover: even, Priority: 10, Timeout: timeouts[rng.Intn(len(timeouts))]},
		rules.Rule{Cover: low, Priority: 11, Timeout: timeouts[rng.Intn(len(timeouts))]},
	)
	set, err := rules.NewSet(rs)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Rules: set, Rates: workload.UniformRates(numFlows, rng), Delta: delta, CacheSize: cache}
}

// withZeroRate is cfg with one covered flow's rate zeroed, as the M₀ chain
// zeroes the target's.
func withZeroRate(cfg Config, seed int64) Config {
	covered := cfg.Rules.CoveredFlows().IDs()
	return cfg.withoutFlow(covered[stats.NewRNG(seed).Intn(len(covered))])
}

// buildCases lists the full-build configurations: small and paper scale,
// each also as M₀, equal-priority disjoint rules, and a universe of more
// than 64 flows (multi-word flow sets). The small draw keeps one
// installable rule, so a second one whose six rules are all installable
// keeps every one of the 42 subset states.
func buildCases(tb testing.TB) []buildCase {
	small := usumConfig(tb, usumSmall, 0.05, 3, false)
	dense := usumConfig(tb, usumSmall, 0.05, 24, false)
	paper := usumConfig(tb, usumPaper, 0.025, 5, false)
	wide := usumConfig(tb, usumScale{flows: 80, rules: 6, maskBits: 3, cache: 3}, 0.05, 7, false)
	tied := tiedConfig(tb, 70, 8, 3, 0.05, 9)
	return []buildCase{
		{"small", small},
		{"small-m0", withZeroRate(small, 1)},
		{"small-dense", dense},
		{"small-dense-m0", withZeroRate(dense, 4)},
		{"paper", paper},
		{"paper-m0", withZeroRate(paper, 2)},
		{"wide", wide},
		{"tied", tied},
		{"tied-m0", withZeroRate(tied, 3)},
	}
}

// bigCacheCase is a 16-rule set with ties and a 14-rule cache: ordering
// 13 or more cached rules takes pdqsort past its insertion-sort cutoff of
// 12, where ties land by its partitioning, not by insertion order.
func bigCacheCase(tb testing.TB) buildCase {
	return buildCase{"big-cache", tiedConfig(tb, 90, 16, 14, 0.05, 11)}
}

// caseStates returns the cached-rule ID lists the per-state tests check:
// every compact state for small rule sets, else every state of at least
// 13 cached rules plus a deterministic sample of the others.
func caseStates(cfg Config) [][]int {
	nr := cfg.Rules.Len()
	var out [][]int
	rng := stats.NewRNG(int64(nr))
	for mask := uint64(1); mask < 1<<uint(nr); mask++ {
		size := bits.OnesCount64(mask)
		if size > cfg.CacheSize {
			continue
		}
		if nr > 12 && size < 13 && rng.Intn(2000) != 0 {
			continue
		}
		out = append(out, appendMaskIDs(nil, mask))
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBitsSlice(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

func TestGammaTablesMatchReference(t *testing.T) {
	for _, c := range append(buildCases(t), bigCacheCase(t)) {
		sr := c.cfg.stepRates()
		e := &uEstimator{rs: c.cfg.Rules, sr: sr, capacity: c.cfg.CacheSize}
		ref := &uEstimator{rs: c.cfg.Rules, sr: sr, capacity: c.cfg.CacheSize}
		states := caseStates(c.cfg)
		if c.name == "big-cache" && len(states[len(states)-1]) < 13 {
			t.Fatalf("%s: no state of 13+ cached rules", c.name)
		}
		for _, ids := range states {
			cached, touts := e.orderCached(ids)
			want := sortByPriorityRef(c.cfg.Rules, ids)
			if !slices.Equal(cached, want) {
				t.Fatalf("%s %v: ordered %v, sort.Slice gives %v", c.name, ids, cached, want)
			}
			if got, want := injectiveFeasible(touts), injectiveFeasibleRef(touts); got != want {
				t.Fatalf("%s %v: Hall check %v, reference %v", c.name, touts, got, want)
			}
			tab := e.fillGammaTables(cached)
			rt := ref.buildGammaTables(want)
			for j := range rt.gamma {
				if !slices.Equal(tab.hp[j], rt.hp[j]) || !sameBitsSlice(tab.gamma[j], rt.gamma[j]) {
					t.Fatalf("%s %v rule %d: tables (%v %v) != reference (%v %v)", c.name, ids, j,
						tab.hp[j], tab.gamma[j], rt.hp[j], rt.gamma[j])
				}
			}
		}
	}
}

func TestEventWeightsMatchReference(t *testing.T) {
	for _, c := range append(buildCases(t), bigCacheCase(t)) {
		rs, sr := c.cfg.Rules, c.cfg.stepRates()
		ct := newCoverTable(rs, len(sr))
		var w eventWeights
		rng := stats.NewRNG(13)
		for mask := uint64(0); mask < 1<<uint(rs.Len()); mask++ {
			if rs.Len() > 12 && rng.Intn(64) != 0 {
				continue
			}
			computeEventWeights(ct, sr, mask, &w)
			ref := computeEventWeightsRef(rs, sr, func(j int) bool { return mask&(1<<uint(j)) != 0 })
			if !sameBits(w.null, ref.null) || !sameBitsSlice(w.arrival, ref.arrival) {
				t.Fatalf("%s mask %b: weights (%v %v) != reference (%v %v)", c.name, mask, w.null, w.arrival, ref.null, ref.arrival)
			}
			for j, rel := range ref.relFlows {
				if got := w.relevant&(1<<uint(j)) != 0; got != !rel.Empty() {
					t.Fatalf("%s mask %b rule %d: relevant %v, reference set %v", c.name, mask, j, got, rel)
				}
				if g, _ := ct.gamma(j, ct.relevantExclusion(j, mask), sr); !sameBits(g, ref.relRate[j]) {
					t.Fatalf("%s mask %b rule %d: γ %v, reference %v", c.name, mask, j, g, ref.relRate[j])
				}
			}
		}
	}
}

// sameEstimates reports whether two states' estimates agree bit for bit,
// slot for slot.
func sameEstimates(a, b StateEstimates) bool {
	return a.Feasible == b.Feasible && (a.Evict == nil) == (b.Evict == nil) &&
		sameBitsSlice(a.Evict, b.Evict) && sameBitsSlice(a.Timeout, b.Timeout)
}

// installableRef returns the rules a probe or an arrival can install:
// the highest-priority cover of each flow of cfg's universe, whatever its
// rate.
func installableRef(cfg Config) uint64 {
	var inst uint64
	for f := range cfg.Rates {
		if j, ok := cfg.Rules.HighestCovering(flows.ID(f)); ok {
			inst |= 1 << uint(j)
		}
	}
	return inst
}

// reducedReference checks that m's states are the subsets of the
// installable rules, in the full chain's order and labelled by their full
// index, and restricts the full reference chain to them: each retained
// row's entries in order, destinations renumbered to m's indices. It
// returns the restricted chain and each of m's states' full index, and
// fails when a retained row leads to a dropped state.
func reducedReference(t *testing.T, name string, m *CompactModel, ref *refModel) (*markov.Sparse, []int) {
	t.Helper()
	inst := installableRef(ref.cfg)
	var full []int
	reduced := make(map[uint64]int)
	for i, mask := range ref.states {
		if mask&^inst == 0 {
			reduced[mask] = len(full)
			full = append(full, i)
		}
	}
	if m.NumStates() != len(full) {
		t.Fatalf("%s: %d states, want the %d subsets of the installable rules %b", name, m.NumStates(), len(full), inst)
	}
	for i, fi := range full {
		if m.StateMask(i) != ref.states[fi] || m.StateLabel(i) != fi {
			t.Fatalf("%s state %d: mask %b labelled %d, want mask %b at full index %d", name, i, m.StateMask(i), m.StateLabel(i), ref.states[fi], fi)
		}
		if got := m.index(ref.states[fi]); got != i {
			t.Fatalf("%s: state %b ranks %d, enumerated at %d", name, ref.states[fi], got, i)
		}
	}
	restricted := markov.NewSparse(len(full))
	for i, fi := range full {
		tos, ps := ref.matrix.Row(fi)
		for k, to := range tos {
			ri, ok := reduced[ref.states[to]]
			if !ok {
				t.Fatalf("%s: retained state %b leads to dropped state %b with probability %v", name, ref.states[fi], ref.states[to], ps[k])
			}
			restricted.Append(i, ri, ps[k])
		}
	}
	return restricted, full
}

// checkRetainedRows compares m, through the state masks, with the
// full reference build restricted to m's states: every builder row, every
// CSR entry and every estimate. It returns each of m's states' full
// index.
func checkRetainedRows(t *testing.T, name string, m *CompactModel, ref *refModel) []int {
	t.Helper()
	restricted, full := reducedReference(t, name, m, ref)
	// Every entry of both CSR forms; the builder rows they are frozen
	// from are compared bit for bit below.
	if !reflect.DeepEqual(m.Frozen(), restricted.Freeze()) {
		t.Fatalf("%s: CSR kernels differ", name)
	}
	for i, fi := range full {
		tos, ps := m.Matrix().Row(i)
		rtos, rps := restricted.Row(i)
		if !slices.Equal(tos, rtos) || !sameBitsSlice(ps, rps) {
			t.Fatalf("%s row %d: (%v %v) != reference (%v %v)", name, i, tos, ps, rtos, rps)
		}
		if !sameEstimates(m.Estimates(i), ref.est[fi]) {
			t.Fatalf("%s state %d: estimates %+v != reference %+v", name, i, m.Estimates(i), ref.est[fi])
		}
	}
	return full
}

// checkModelMatchesReference builds cfg cold, each time over a fresh
// memo, at each worker count and compares it with the full reference
// build (checkRetainedRows).
func checkModelMatchesReference(t *testing.T, name string, cfg Config, workers ...int) {
	t.Helper()
	ref, err := buildReferenceModel(cfg)
	if err != nil {
		t.Fatalf("%s: reference build: %v", name, err)
	}
	for _, w := range workers {
		m, err := newCompactModelWorkers(cfg, NewBuilds(nil, true), w)
		if err != nil {
			t.Fatalf("%s workers %d: %v", name, w, err)
		}
		checkRetainedRows(t, fmt.Sprintf("%s workers %d", name, w), m, ref)
	}
}

func TestCompactModelMatchesReferenceBuild(t *testing.T) {
	for _, c := range buildCases(t) {
		checkModelMatchesReference(t, c.name, c.cfg, 1, 4)
	}
}

// FuzzCompactBuildMatchesReference holds the cold build to the reference
// build on arbitrary small configurations: generated or tied rule sets,
// universes of up to 96 flows, any cache size, with or without a zeroed
// rate.
func FuzzCompactBuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), false, false)
	f.Add(int64(2), uint8(70), uint8(2), true, false)
	f.Add(int64(3), uint8(16), uint8(4), false, true)
	f.Add(int64(4), uint8(90), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, numFlows, cache uint8, tied, zero bool) {
		nf := 8 + int(numFlows)%89
		c := 1 + int(cache)%4
		var cfg Config
		if tied {
			cfg = tiedConfig(t, nf, 7, c, 0.05, seed)
		} else {
			rng := stats.NewRNG(seed)
			gc := rules.DefaultGenerateConfig(0.05)
			gc.NumFlows, gc.NumRules, gc.MaskBits = nf, 6, 3
			rs, err := rules.Generate(gc, rng)
			if err != nil {
				t.Skip(err)
			}
			cfg = Config{Rules: rs, Rates: workload.UniformRates(nf, rng), Delta: 0.05, CacheSize: c}
		}
		if zero {
			cfg = withZeroRate(cfg, seed)
		}
		checkModelMatchesReference(t, "fuzz", cfg, 1)
	})
}

// sameSequenceEval reports whether two evaluations agree bit for bit.
func sameSequenceEval(a, b SequenceEval) bool {
	if !slices.Equal(a.Flows, b.Flows) || !sameBits(a.Gain, b.Gain) ||
		len(a.PathProb) != len(b.PathProb) || len(a.PosteriorPresent) != len(b.PosteriorPresent) {
		return false
	}
	for k, v := range a.PathProb {
		if w, ok := b.PathProb[k]; !ok || !sameBits(v, w) {
			return false
		}
	}
	for k, v := range a.PosteriorPresent {
		if w, ok := b.PosteriorPresent[k]; !ok || !sameBits(v, w) {
			return false
		}
	}
	return true
}

func TestBestPairMatchesBestOver(t *testing.T) {
	ties := 0
	for _, c := range buildCases(t) {
		target := c.cfg.Rules.CoveredFlows().IDs()[0]
		sel, err := NewCompactSelector(c.cfg, target, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := sel.AllFlows()
		if len(all) > 12 {
			all = all[:12]
		}
		rev := slices.Clone(all)
		slices.Reverse(rev)
		// Repeated candidates give ordered pairs of equal gain, so the
		// strict > tie-break decides between them.
		dup := append(slices.Clone(all[:3]), all[:3]...)
		for _, cands := range [][]flows.ID{all, sel.FlowsExcept(target)[:min(10, len(all)-1)], rev, dup, all[:1]} {
			got, ok := sel.BestSequence(cands, 2)
			want, wantOK := sel.bestPairRef(cands)
			if ok != wantOK || !sameSequenceEval(got, want) {
				t.Fatalf("%s candidates %v: got (%v, %+v), bestOver (%v, %+v)", c.name, cands, ok, got, wantOK, want)
			}
			gains := map[uint64]int{}
			for _, fs := range sequencesOfTwo(cands) {
				gains[math.Float64bits(sel.EvaluateSequence(fs).Gain)]++
			}
			for _, n := range gains {
				ties += n - 1
			}
		}
	}
	if ties == 0 {
		t.Fatal("no candidate list had tied gains")
	}
}

// allocsWithoutGC is testing.AllocsPerRun with the collector held off
// while it counts. A collection empties the estimators' sync.Pool, and
// the next build's refill would be counted against it.
func allocsWithoutGC(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestMemoHitRebuildSteadyStateAllocs: rebuilding a model over a warm
// memo makes one lookup, a hit, and evaluates no state: the rebuilt model
// shares the memoized estimate vector. Its allocations are the model's
// own storage — states, cover table, row slabs, both matrix forms — plus
// the lookup's timeout list, within a pinned count that does not grow
// with the rows: the paper-scale configuration has rows of more than 12
// entries, which the matrix assembly appends in place. The small-scale
// configuration has Z ≤ 0 states (zeroZConfig), so memoized infeasible
// verdicts are covered too.
func TestMemoHitRebuildSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, c := range []struct {
		name      string
		cfg       Config
		maxAllocs float64
	}{
		{"small", zeroZConfig(t), 27},
		{"paper", usumConfig(t, usumPaper, 0.025, 2, false), 28},
	} {
		reg := telemetry.NewRegistry()
		b := NewBuilds(reg, true)
		cold, err := newCompactModelWorkers(c.cfg, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts := func() (hits, misses, states int64) {
			return reg.Counter("usum_memo_lookups", "result", "hit").Value(),
				reg.Counter("usum_memo_lookups", "result", "miss").Value(),
				reg.Counter("usum_states_total", "method", "exact").Value()
		}
		_, _, coldStates := counts()
		warm, err := newCompactModelWorkers(c.cfg, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses, states := counts(); hits != 1 || misses != 1 || states != coldStates {
			t.Fatalf("%s warm rebuild: %d hits, %d misses, %d states evaluated (cold %d); want one hit and no state", c.name, hits, misses-1, states-coldStates, coldStates)
		}
		if &warm.est[0] != &cold.est[0] {
			t.Fatalf("%s: warm rebuild does not share the memoized estimate vector", c.name)
		}
		longest := 0
		for i := 0; i < warm.NumStates(); i++ {
			tos, _ := warm.Matrix().Row(i)
			longest = max(longest, len(tos))
		}
		if c.name == "paper" && longest <= 12 {
			t.Fatalf("paper: longest row has %d entries; the test no longer covers long rows", longest)
		}
		allocs := allocsWithoutGC(5, func() {
			if _, err := newCompactModelWorkers(c.cfg, b, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.maxAllocs {
			t.Fatalf("%s warm rebuild of %d states: %v allocs, want ≤ %v", c.name, warm.NumStates(), allocs, c.maxAllocs)
		}
	}
}

func TestEventWeightsZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := usumConfig(t, usumPaper, 0.025, 2, false)
	ct, sr := newCoverTable(cfg.Rules, len(cfg.Rates)), cfg.stepRates()
	var w eventWeights
	computeEventWeights(ct, sr, 0, &w)
	allocs := testing.AllocsPerRun(5, func() {
		for mask := uint64(0); mask < 1<<uint(cfg.Rules.Len()); mask += 7 {
			computeEventWeights(ct, sr, mask, &w)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm computeEventWeights: %v allocs, want 0", allocs)
	}
}

func TestBestSequenceSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := usumConfig(t, usumPaper, 0.025, 2, false)
	sel, err := NewCompactSelector(cfg, 0, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := sel.AllFlows()
	count := func(cands []flows.ID) float64 {
		sel.BestSequence(cands, 2) // warm the arena pool
		return testing.AllocsPerRun(50, func() { sel.BestSequence(cands, 2) })
	}
	if four, eight := count(all[:4]), count(all[:8]); four != eight {
		t.Fatalf("BestSequence allocs: %v at 4 candidates, %v at 8; want equal", four, eight)
	}
}

func TestSequenceSearchTelemetry(t *testing.T) {
	t.Parallel()
	cfg := usumConfig(t, usumSmall, 0.05, 3, false)
	reg := telemetry.NewRegistry()
	sel, err := NewCompactSelector(cfg, 0, 40, NewBuilds(reg, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sel.BestSequence(sel.AllFlows(), 2); !ok {
		t.Fatal("no sequence")
	}
	if n := reg.Snapshot().Histograms["sequence_search_ms"].Summary.N; n != 1 {
		t.Fatalf("sequence_search_ms observed %d times, want 1", n)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "sequence_search_ms_count 1\n") {
		t.Fatalf("/metrics exposition lacks sequence_search_ms:\n%s", prom.String())
	}
}

func TestCompactMemBytesCountsBuilderCapacity(t *testing.T) {
	cfg := usumConfig(t, usumSmall, 0.05, 3, false)
	m, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	builder := m.Matrix().MemBytes()
	if builder < int64(m.Matrix().NNZ())*16 {
		t.Fatalf("builder MemBytes %d below its %d stored entries", builder, m.Matrix().NNZ())
	}
	if m.MemBytes() < builder+m.Frozen().MemBytes() {
		t.Fatalf("model MemBytes %d omits builder (%d) or CSR (%d)", m.MemBytes(), builder, m.Frozen().MemBytes())
	}
}
