package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/testutil"
	"flowrecon/internal/workload"
)

// usumScale is a rule-set shape of the paper's evaluation.
type usumScale struct {
	flows, rules, maskBits, cache int
}

var (
	usumSmall = usumScale{8, 6, 3, 3}
	usumPaper = usumScale{16, 12, 4, 6}
)

// usumConfig draws a random configuration at the given scale and step;
// zeroRate additionally zeroes one flow's rate, as the M₀ chain does for
// the target.
func usumConfig(tb testing.TB, sc usumScale, delta float64, seed int64, zeroRate bool) Config {
	tb.Helper()
	rng := stats.NewRNG(seed)
	gc := rules.DefaultGenerateConfig(delta)
	gc.NumFlows, gc.NumRules, gc.MaskBits = sc.flows, sc.rules, sc.maskBits
	rs, err := rules.Generate(gc, rng)
	if err != nil {
		tb.Fatal(err)
	}
	rates := workload.UniformRates(sc.flows, rng)
	if zeroRate {
		rates[rng.Intn(sc.flows)] = 0
	}
	return Config{Rules: rs, Rates: rates, Delta: delta, CacheSize: sc.cache}
}

// enumState is one state the oracle checks: its cached slots in
// descending priority, their timeouts, its γ tables and the size of its
// assignment grid Π t_i.
type enumState struct {
	cached, touts []int
	tab           *gammaTables
	grid          int
}

// exactState prepares ids the way estimate does, reporting false when the
// state is infeasible or its grid exceeds limit (too large for the
// reference walk).
func exactState(e *uEstimator, ids []int, limit int) (enumState, bool) {
	cached := append([]int(nil), ids...)
	sort.Slice(cached, func(a, b int) bool { return e.rs.HigherPriority(cached[a], cached[b]) })
	touts := make([]int, len(cached))
	grid := 1
	for i, j := range cached {
		touts[i] = e.rs.Rule(j).Timeout
		grid *= touts[i]
		if grid > limit {
			return enumState{}, false
		}
	}
	if !injectiveFeasible(touts) {
		return enumState{}, false
	}
	return enumState{cached: cached, touts: touts, tab: e.buildGammaTables(cached), grid: grid}, true
}

// exactStates lists every feasible compact state of cfg (1..CacheSize
// cached rules) whose grid is at most limit.
func exactStates(e *uEstimator, cache, limit int) []enumState {
	var out []enumState
	n := e.rs.Len()
	for mask := 1; mask < 1<<uint(n); mask++ {
		ids := appendMaskIDs(nil, uint64(mask))
		if len(ids) > cache {
			continue
		}
		if st, ok := exactState(e, ids, limit); ok {
			out = append(out, st)
		}
	}
	return out
}

// oldExactLimit is the largest grid the per-assignment enumeration used
// to handle; Monte Carlo sampling estimated every larger state.
const oldExactLimit = 20000

// sweepTolerance bounds the relative difference between the sweep's sums
// and the reference walk's: the same positive terms, summed in another
// order.
const sweepTolerance = 1e-12

// sweepState runs the sweep on e for st at the given capacity and returns
// its sums.
func sweepState(e *uEstimator, st enumState, capacity int) *uAccumulator {
	e.capacity = capacity
	acc := newUAccumulator(st.cached, st.touts, e)
	e.sweep(st.tab, acc, len(st.cached) >= capacity)
	return acc
}

// checkAgainstReference runs the sweep on e (a warm estimator reused
// across states) and the reference walk on a fresh one, at the given
// capacity, and requires z, timeoutNum and, under a full table, evictNum
// to agree to sweepTolerance. It returns the largest relative difference.
func checkAgainstReference(t *testing.T, e *uEstimator, st enumState, capacity int) float64 {
	t.Helper()
	got := sweepState(e, st, capacity)
	ref := &uEstimator{rs: e.rs, sr: e.sr, capacity: capacity}
	want := newUAccumulator(st.cached, st.touts, ref)
	ref.enumerateRef(st.cached, st.touts, st.tab, want)
	worst := 0.0
	near := func(a, b float64) bool {
		d := math.Abs(a - b)
		if d == 0 {
			return true
		}
		rel := d / math.Max(math.Abs(a), math.Abs(b))
		worst = math.Max(worst, rel)
		return rel <= sweepTolerance
	}
	if !near(got.z, want.z) {
		t.Fatalf("state %v touts %v cap %d: z %v, reference %v", st.cached, st.touts, capacity, got.z, want.z)
	}
	full := len(st.cached) >= capacity
	for i := range st.cached {
		if !near(got.timeoutNum[i], want.timeoutNum[i]) || full && !near(got.evictNum[i], want.evictNum[i]) {
			t.Fatalf("state %v touts %v cap %d slot %d: evict %v timeout %v, reference %v %v",
				st.cached, st.touts, capacity, i, got.evictNum[i], got.timeoutNum[i], want.evictNum[i], want.timeoutNum[i])
		}
	}
	return worst
}

// TestEnumerateMatchesReference holds the sweep to the per-assignment
// walk over random rule sets at small and paper scale, three step sizes
// (timeouts up to 100 steps at Δ = 0.01), with and without a zeroed
// rate, and every state both under a full table (tail corrections,
// eviction sums) and a non-full one. The states reach grids ten times
// the old exact limit: states the Monte Carlo path used to sample.
func TestEnumerateMatchesReference(t *testing.T) {
	const limit = 10 * oldExactLimit
	perConfig := 12
	if testing.Short() {
		perConfig = 4
	}
	var flat, masked, maxGrid, checked, pastOld int
	worst := 0.0
	for _, sc := range []usumScale{usumSmall, usumPaper} {
		for _, delta := range []float64{0.01, 0.025, 0.05} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, zero := range []bool{false, true} {
					cfg := usumConfig(t, sc, delta, seed, zero)
					e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
					states := exactStates(e, sc.cache, limit)
					// The largest grid, then a deterministic sample.
					sort.SliceStable(states, func(a, b int) bool { return states[a].grid > states[b].grid })
					pick := stats.NewRNG(seed * 31)
					for k := 0; k < perConfig && len(states) > 0; k++ {
						idx := 0
						if k > 0 {
							idx = pick.Intn(len(states))
						}
						st := states[idx]
						m := len(st.cached)
						worst = math.Max(worst, checkAgainstReference(t, e, st, m))   // full table
						worst = math.Max(worst, checkAgainstReference(t, e, st, m+1)) // room to spare
						checked++
						maxGrid = max(maxGrid, st.grid)
						if st.grid > oldExactLimit {
							pastOld++
						}
						acc := newUAccumulator(st.cached, st.touts, e)
						for _, j := range acc.uncached {
							hp := st.tab.hp[j]
							if len(hp) == 0 {
								flat++
							} else if hp[len(hp)-1] == m-1 {
								masked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d states (%d past the old exact limit), largest grid %d, worst relative difference %.2g", checked, pastOld, maxGrid, worst)
	if flat == 0 || masked == 0 {
		t.Fatalf("coverage: %d flat and %d final-slot-masked uncached rules", flat, masked)
	}
	if pastOld == 0 || maxGrid < limit/2 {
		t.Fatalf("coverage: %d states past the old exact limit %d, largest grid %d; want some near %d", pastOld, oldExactLimit, maxGrid, limit)
	}
}

// FuzzEnumerateMatchesReference draws one configuration and state per
// seed — scale, step, zeroed rate, full or not all from the seed — and
// requires the sweep and the reference walk to agree.
func FuzzEnumerateMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 99, 1234, -5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		bitsOf := uint64(seed)
		sc := usumSmall
		if bitsOf&1 != 0 {
			sc = usumPaper
		}
		delta := []float64{0.01, 0.025, 0.05}[(bitsOf>>1)%3]
		cfg := usumConfig(t, sc, delta, seed, bitsOf&8 != 0)
		e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
		rng := stats.NewRNG(seed ^ 0x5eed)
		ids := rng.Perm(sc.rules)[:1+rng.Intn(sc.cache)]
		for len(ids) > 0 {
			if st, ok := exactState(e, ids, 5*oldExactLimit); ok {
				capacity := len(ids)
				if bitsOf&16 != 0 {
					capacity++
				}
				checkAgainstReference(t, e, st, capacity)
				return
			}
			ids = ids[:len(ids)-1]
		}
	})
}

// checkSweepBits runs the sweep on e and the reference passes
// (sweep_ref_test.go) on ref for st at the given capacity, and requires
// z and every slot's timeout and eviction sums to agree bit for bit. Both
// estimators may be warm from other states.
func checkSweepBits(t *testing.T, e, ref *uEstimator, st enumState, capacity int) {
	t.Helper()
	full := len(st.cached) >= capacity
	got := sweepState(e, st, capacity)
	ref.capacity = capacity
	want := newUAccumulator(st.cached, st.touts, ref)
	ref.sweepRef(st.tab, want, full)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.z, want.z) {
		t.Fatalf("state %v touts %v cap %d: z %v, reference %v", st.cached, st.touts, capacity, got.z, want.z)
	}
	for i := range st.cached {
		if !same(got.timeoutNum[i], want.timeoutNum[i]) || !same(got.evictNum[i], want.evictNum[i]) {
			t.Fatalf("state %v touts %v cap %d slot %d: evict %v timeout %v, reference %v %v",
				st.cached, st.touts, capacity, i, got.evictNum[i], got.timeoutNum[i], want.evictNum[i], want.timeoutNum[i])
		}
	}
}

// TestSweepMatchesReference holds the sweep, which visits only live slot
// sets, to the passes that visit every set, bit for bit: at small and
// paper scale, three step sizes, with and without a zeroed rate, every
// state under a full table and a non-full one. Small scale checks every
// state; paper scale its largest grid and a deterministic sample. One
// warm estimator sweeps the states in turn, so stale scratch from a
// larger or a fuller state would show.
func TestSweepMatchesReference(t *testing.T) {
	perConfig := 160
	if testing.Short() {
		perConfig = 24
	}
	checked := 0
	for _, sc := range []usumScale{usumSmall, usumPaper} {
		for _, delta := range []float64{0.01, 0.025, 0.05} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, zero := range []bool{false, true} {
					cfg := usumConfig(t, sc, delta, seed, zero)
					e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
					ref := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
					var states []enumState
					if sc == usumSmall {
						states = exactStates(e, sc.cache, math.MaxInt)
					} else {
						states = sampleStates(e, sc, seed*37, perConfig)
					}
					for _, st := range states {
						m := len(st.cached)
						checkSweepBits(t, e, ref, st, m)   // full table
						checkSweepBits(t, e, ref, st, m+1) // room to spare
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d states, each full and not, bit-identical", checked)
}

// sampleStates returns the feasible state of cfg with the largest grid
// among count random draws of up to sc.cache cached rules, followed by
// the draws themselves.
func sampleStates(e *uEstimator, sc usumScale, seed int64, count int) []enumState {
	rng := stats.NewRNG(seed)
	var out []enumState
	largest := 0
	for k := 0; k < count; k++ {
		ids := rng.Perm(sc.rules)[:1+rng.Intn(sc.cache)]
		if st, ok := exactState(e, ids, math.MaxInt); ok {
			out = append(out, st)
			if st.grid > out[largest].grid {
				largest = len(out) - 1
			}
		}
	}
	if len(out) > 0 {
		out = append([]enumState{out[largest]}, out...)
	}
	return out
}

// FuzzSweepMatchesReference draws one configuration and a few states per
// seed — scale, step, zeroed rate and capacity all from the seed — and
// sweeps them on one warm estimator, requiring each to match the
// reference passes bit for bit.
func FuzzSweepMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 99, 1234, -5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		bitsOf := uint64(seed)
		sc := usumSmall
		if bitsOf&1 != 0 {
			sc = usumPaper
		}
		delta := []float64{0.01, 0.025, 0.05}[(bitsOf>>1)%3]
		cfg := usumConfig(t, sc, delta, seed, bitsOf&8 != 0)
		e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
		ref := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
		rng := stats.NewRNG(seed ^ 0x5eed)
		for _, st := range sampleStates(e, sc, seed^0x5eed, 4) {
			checkSweepBits(t, e, ref, st, len(st.cached)+rng.Intn(2))
		}
	})
}

// TestEnumerateSteadyStateZeroAlloc pins the sweep's scratch discipline:
// once an estimator has swept its largest states, full and not, sweeping
// them again allocates nothing, so repeated model builds add no GC
// pressure.
func TestEnumerateSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := usumConfig(t, usumPaper, 0.01, 2, false)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates()}
	states := exactStates(e, cfg.CacheSize, math.MaxInt)
	sort.SliceStable(states, func(a, b int) bool { return len(states[a].cached) > len(states[b].cached) })
	states = states[:min(len(states), 8)]
	accs := make([]*uAccumulator, len(states))
	for i, st := range states {
		accs[i] = newUAccumulator(st.cached, st.touts, e)
	}
	sweepAll := func() {
		for i, st := range states {
			a := accs[i]
			for _, capacity := range []int{cfg.CacheSize, cfg.CacheSize + 1} {
				e.capacity = capacity
				e.sweep(st.tab, a, len(st.cached) >= capacity)
			}
		}
	}
	sweepAll()
	if allocs := testing.AllocsPerRun(5, sweepAll); allocs != 0 {
		t.Fatalf("warm sweep: %v allocs per %d states, want 0", allocs, len(states))
	}
}

// zeroZConfig is a small-scale configuration whose model keeps states in
// which every assignment has zero probability (Z ≤ 0). Such a state needs
// a cached rule with no flow of positive rate left to match it, and every
// kept rule is some flow's highest-priority cover, so only a zeroed rate
// makes one: this configuration is an M₀ chain, whose zeroed flow is the
// only flow its rule is the highest-priority cover of. A probe of that
// flow installs the rule, and every state caching it has Z ≤ 0.
func zeroZConfig(tb testing.TB) Config {
	return usumConfig(tb, usumSmall, 0.05, 1, true)
}

// TestRebuildEvaluatesNoState: a build looks its model up in the memo
// once. The first build misses and evaluates its states; building an
// identical model a second time over the same memo hits and evaluates
// none. The configuration has states whose assignments all have zero
// probability (Z ≤ 0, zeroZConfig); their infeasible verdicts are part
// of the memoized vector too.
func TestRebuildEvaluatesNoState(t *testing.T) {
	t.Parallel()
	cfg := zeroZConfig(t)
	reg := telemetry.NewRegistry()
	b := NewBuilds(reg, true)
	lookups := func() (hits, misses, states int64) {
		return reg.Counter("usum_memo_lookups", "result", "hit").Value(),
			reg.Counter("usum_memo_lookups", "result", "miss").Value(),
			reg.Counter("usum_states_total", "method", "exact").Value()
	}
	cold, err := NewCompactModel(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, states := lookups(); hits != 0 || misses != 1 || states == 0 {
		t.Fatalf("first build: %d memo hits, %d misses, %d states; want one miss that evaluates", hits, misses, states)
	}
	_, _, coldStates := lookups()
	if _, err := NewCompactModel(cfg, b); err != nil {
		t.Fatal(err)
	}
	if hits, misses, states := lookups(); hits != 1 || misses != 1 || states != coldStates {
		t.Fatalf("second build: %d memo hits, %d misses, %d states (cold %d); want one hit that evaluates nothing", hits, misses, states, coldStates)
	}

	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize}
	zeroZ := 0
	for i := 1; i < cold.NumStates(); i++ {
		_, touts := e.orderCached(appendMaskIDs(nil, cold.StateMask(i)))
		if injectiveFeasible(touts) && !cold.Estimates(i).Feasible {
			zeroZ++
		}
	}
	if zeroZ == 0 {
		t.Fatal("configuration has no Z ≤ 0 state; the test no longer covers infeasible verdicts")
	}
}

// TestNilMemoBuildRecordsNoLookup: a build in a context without a memo,
// run right after a memoized build has returned its estimators to the
// pool, evaluates every state and looks nothing up: the memoized
// context's counters do not move, since only a build in that context
// may consult its memo or count into it.
func TestNilMemoBuildRecordsNoLookup(t *testing.T) {
	t.Parallel()
	cfg := usumConfig(t, usumSmall, 0.1, 8, false)
	memoReg, plainReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	if _, err := newCompactModelWorkers(cfg, NewBuilds(memoReg, true), 1); err != nil {
		t.Fatal(err)
	}
	memoStates := memoReg.Counter("usum_states_total", "method", "exact").Value()
	if _, err := newCompactModelWorkers(cfg, NewBuilds(plainReg, false), 1); err != nil {
		t.Fatal(err)
	}
	hits := memoReg.Counter("usum_memo_lookups", "result", "hit").Value()
	misses := memoReg.Counter("usum_memo_lookups", "result", "miss").Value()
	if hits != 0 || misses != 1 {
		t.Fatalf("after a memoized and a memo-less build: %d memo hits, %d misses; want the first build's one miss", hits, misses)
	}
	if got := memoReg.Counter("usum_states_total", "method", "exact").Value(); got != memoStates {
		t.Fatalf("memo-less build moved the memoized context's state count from %d to %d", memoStates, got)
	}
	plain := plainReg.Snapshot()
	if plain.Counters[`usum_states_total{method="exact"}`] != memoStates {
		t.Fatalf("build without memo evaluated %d states, want every one of %d", plain.Counters[`usum_states_total{method="exact"}`], memoStates)
	}
	for series := range plain.Counters {
		if strings.HasPrefix(series, "usum_memo_lookups") {
			t.Fatalf("context without a memo registered %s", series)
		}
	}
}

// TestUSumSweepStepsPinned pins the u-sum work counters of one fixed
// model build: every feasible state the model keeps — a subset of the
// installable rules — is swept once, over K = max t_i steps of its cached
// rules, so the step count is a property of the configuration — computed
// here from the states alone — not of the sweep's internals or the
// build's worker count. The pin was 792 steps over 41 states while the
// model kept every subset: 16 of those states cache rule 2, which is no
// flow's highest-priority cover, and the chain never reaches them.
func TestUSumSweepStepsPinned(t *testing.T) {
	t.Parallel()
	const wantSteps, wantStates = 504, 25
	cfg := usumConfig(t, usumSmall, 0.025, 11, false)
	ref := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize}
	inst := installableRef(cfg)
	steps, states := 0, 0
	for _, st := range exactStates(ref, cfg.CacheSize, math.MaxInt) {
		if idMask(st.cached)&^inst != 0 {
			continue
		}
		steps += slices.Max(st.touts)
		states++
	}
	if steps != wantSteps || states != wantStates {
		t.Fatalf("configuration has %d feasible states over %d steps, want %d over %d", states, steps, wantStates, wantSteps)
	}
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		if _, err := newCompactModelWorkers(cfg, NewBuilds(reg, false), workers); err != nil {
			t.Fatal(err)
		}
		steps := reg.Counter("usum_sweep_steps_total").Value()
		states := reg.Counter("usum_states_total", "method", "exact").Value()
		if steps != wantSteps || states != wantStates {
			t.Errorf("workers %d: %d steps over %d states, want %d over %d", workers, steps, states, wantSteps, wantStates)
		}
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("usum_sweep_steps_total %d\n", wantSteps),
			fmt.Sprintf("usum_states_total{method=\"exact\"} %d\n", wantStates),
		} {
			if !strings.Contains(prom.String(), line) {
				t.Errorf("workers %d: /metrics exposition lacks %q", workers, line)
			}
		}
	}
}

// BenchmarkUSumEnumerate measures the u-sum sweep on every feasible state
// of one small-scale configuration. The estimator has no memo, so every
// state is evaluated each iteration. It reports the sweep steps per iteration
// and the cost per state.
func BenchmarkUSumEnumerate(b *testing.B) {
	cfg := usumConfig(b, usumSmall, 0.025, 11, false)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize}
	var ids [][]int
	var outs []StateEstimates
	for _, st := range exactStates(e, cfg.CacheSize, math.MaxInt) {
		ids = append(ids, st.cached)
		outs = append(outs, newStateEstimates(len(st.cached), len(st.cached) >= cfg.CacheSize))
	}
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range ids {
			e.estimate(c, &outs[k])
			steps += e.sw.steps
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/state")
}

// TestUSumMemoComparesInputsInFull: a memo hit needs the model's inputs
// to match the entry's in every field, so two models whose inputs share
// a hash — forced here by filing both under one — never share estimates.
func TestUSumMemoComparesInputsInFull(t *testing.T) {
	cfg := usumConfig(t, usumSmall, 0.1, 8, false)
	m, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := usumInputsOf(m)
	variants := map[string]func(*usumInputs){
		"capacity": func(v *usumInputs) { v.capacity++ },
		"rate":     func(v *usumInputs) { v.sr[0] = math.Nextafter(v.sr[0], 1) },
		"cover":    func(v *usumInputs) { v.covers[0] ^= 1 },
		"priority": func(v *usumInputs) { v.higher[0] ^= 2 },
		"timeout":  func(v *usumInputs) { v.touts[0]++ },
		"flows":    func(v *usumInputs) { v.sr, v.covers = v.sr[1:], v.covers[1:] },
	}
	for name, edit := range variants {
		reg := telemetry.NewRegistry()
		b := NewBuilds(reg, true)
		b.memo.put(in.hash(), in, m.est)
		other := usumInputs{capacity: in.capacity, sr: slices.Clone(in.sr), covers: slices.Clone(in.covers),
			higher: slices.Clone(in.higher), touts: slices.Clone(in.touts)}
		if b.lookup(in.hash(), &other) == nil {
			t.Fatalf("%s: a copy of the inputs misses", name)
		}
		edit(&other)
		if other.hash() == in.hash() {
			t.Fatalf("%s: the edit does not change the hash", name)
		}
		if b.lookup(in.hash(), &other) != nil {
			t.Fatalf("%s: inputs differing only in %s hit under a shared hash", name, name)
		}
		if hits, misses := reg.Counter("usum_memo_lookups", "result", "hit").Value(), reg.Counter("usum_memo_lookups", "result", "miss").Value(); hits != 1 || misses != 1 {
			t.Fatalf("%s: %d hits, %d misses; want one of each", name, hits, misses)
		}
	}
}
