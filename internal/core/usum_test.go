package core

import (
	"fmt"
	"math"
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

// enumState is one exact-path input of enumerateFast: a state's cached
// slots in descending priority, their timeouts and its γ tables.
type enumState struct {
	cached, touts []int
	tab           *gammaTables
	grid          int
}

// exactState prepares ids the way estimate does, reporting false when the
// state is infeasible or its grid exceeds limit (the Monte Carlo path).
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

// exactStates lists every compact state of cfg (1..CacheSize cached
// rules) that takes the exact path at limit.
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

// checkAgainstReference runs the kernel on fast (a warm estimator reused
// across states) and the reference walk on a fresh one, at the given
// capacity, and requires z, evictNum, timeoutNum and the leaf count to
// agree to the last bit.
func checkAgainstReference(t *testing.T, fast *uEstimator, st enumState, capacity int) {
	t.Helper()
	fast.capacity = capacity
	ref := &uEstimator{rs: fast.rs, sr: fast.sr, capacity: capacity, params: fast.params}
	got := newUAccumulator(st.cached, st.touts, fast)
	fast.enumerateFast(st.cached, st.touts, st.tab, got)
	want := newUAccumulator(st.cached, st.touts, ref)
	ref.enumerateRef(st.cached, st.touts, st.tab, want)
	if fast.scr.leaves != ref.scr.leaves {
		t.Fatalf("state %v cap %d: %d leaves, reference %d", st.cached, capacity, fast.scr.leaves, ref.scr.leaves)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.z, want.z) {
		t.Fatalf("state %v touts %v cap %d: z %v, reference %v", st.cached, st.touts, capacity, got.z, want.z)
	}
	for i := range st.cached {
		if !same(got.evictNum[i], want.evictNum[i]) || !same(got.timeoutNum[i], want.timeoutNum[i]) {
			t.Fatalf("state %v touts %v cap %d slot %d: evict %v timeout %v, reference %v %v",
				st.cached, st.touts, capacity, i, got.evictNum[i], got.timeoutNum[i], want.evictNum[i], want.timeoutNum[i])
		}
	}
}

// TestEnumerateMatchesReference holds the last-slot kernel to the per-leaf
// walk it replaced, bit for bit, over random rule sets at small and paper
// scale, three step sizes (timeouts up to 100 steps at Δ = 0.01), with
// and without a zeroed rate, and every state both under a full table
// (tail corrections) and a non-full one.
func TestEnumerateMatchesReference(t *testing.T) {
	limit := DefaultUSumParams().ExactLimit
	perConfig := 12
	if testing.Short() {
		perConfig = 4
	}
	var flat, masked, maxGrid, checked int
	for _, sc := range []usumScale{usumSmall, usumPaper} {
		for _, delta := range []float64{0.01, 0.025, 0.05} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, zero := range []bool{false, true} {
					cfg := usumConfig(t, sc, delta, seed, zero)
					fast := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), params: DefaultUSumParams()}
					states := exactStates(fast, sc.cache, limit)
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
						checkAgainstReference(t, fast, st, m)   // full table
						checkAgainstReference(t, fast, st, m+1) // room to spare
						checked++
						maxGrid = max(maxGrid, st.grid)
						acc := newUAccumulator(st.cached, st.touts, fast)
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
	t.Logf("%d states, largest grid %d", checked, maxGrid)
	if flat == 0 || masked == 0 {
		t.Fatalf("coverage: %d flat and %d final-slot-masked uncached rules", flat, masked)
	}
	if maxGrid < limit/2 {
		t.Fatalf("coverage: largest grid %d, want near the exact limit %d", maxGrid, limit)
	}
}

// FuzzEnumerateMatchesReference draws one configuration and state per
// seed — scale, step, zeroed rate, full or not all from the seed — and
// requires the kernel and the reference walk to agree to the last bit.
func FuzzEnumerateMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 99, 1234, -5} {
		f.Add(seed)
	}
	limit := DefaultUSumParams().ExactLimit
	f.Fuzz(func(t *testing.T, seed int64) {
		bitsOf := uint64(seed)
		sc := usumSmall
		if bitsOf&1 != 0 {
			sc = usumPaper
		}
		delta := []float64{0.01, 0.025, 0.05}[(bitsOf>>1)%3]
		cfg := usumConfig(t, sc, delta, seed, bitsOf&8 != 0)
		e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), params: DefaultUSumParams()}
		rng := stats.NewRNG(seed ^ 0x5eed)
		ids := rng.Perm(sc.rules)[:1+rng.Intn(sc.cache)]
		for len(ids) > 0 {
			if st, ok := exactState(e, ids, limit); ok {
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

// TestEnumerateSteadyStateZeroAlloc pins the kernel's scratch discipline:
// once an estimator has enumerated its largest states, enumerating them
// again allocates nothing, so repeated model builds add no GC pressure.
func TestEnumerateSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := usumConfig(t, usumPaper, 0.025, 2, false)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize, params: DefaultUSumParams()}
	states := exactStates(e, cfg.CacheSize, e.params.ExactLimit)
	sort.SliceStable(states, func(a, b int) bool { return len(states[a].cached) > len(states[b].cached) })
	states = states[:min(len(states), 8)]
	accs := make([]*uAccumulator, len(states))
	for i, st := range states {
		accs[i] = newUAccumulator(st.cached, st.touts, e)
		e.enumerateFast(st.cached, st.touts, st.tab, accs[i])
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i, st := range states {
			a := accs[i]
			a.z = 0
			clear(a.evictNum)
			clear(a.timeoutNum)
			e.enumerateFast(st.cached, st.touts, st.tab, a)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm enumerateFast: %v allocs per %d states, want 0", allocs, len(states))
	}
}

// TestRebuildEvaluatesNoState: building an identical model a second time
// takes every state's estimates from the u-sum memo. The configuration
// has states whose assignments all have zero probability (Z ≤ 0); their
// infeasible verdicts are pure functions of the memo key too, so they are
// memoized like feasible ones.
func TestRebuildEvaluatesNoState(t *testing.T) {
	cfg, params := usumConfig(t, usumSmall, 0.1, 8, false), DefaultUSumParams()
	ResetUSumMemo()
	t.Cleanup(ResetUSumMemo)
	if _, err := NewCompactModel(cfg, params); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	SetTelemetry(reg)
	t.Cleanup(func() { SetTelemetry(nil) })
	if _, err := NewCompactModel(cfg, params); err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter("usum_memo_lookups", "result", "hit").Value()
	misses := reg.Counter("usum_memo_lookups", "result", "miss").Value()
	if hits == 0 || misses != 0 {
		t.Fatalf("second build: %d memo hits, %d misses; want every lookup a hit", hits, misses)
	}

	e := (&CompactModel{cfg: cfg, sr: cfg.stepRates(), params: params}).newEstimator()
	zeroZ := 0
	for _, ids := range caseStates(cfg) {
		if _, touts := e.orderCached(ids); injectiveFeasible(touts) && !e.estimate(ids).Feasible {
			zeroZ++
		}
	}
	if zeroZ == 0 {
		t.Fatal("configuration has no Z ≤ 0 state; the test no longer covers infeasible verdicts")
	}
}

// TestUSumLeafCountPinned pins the u-sum work counters of one fixed model
// build: the exact leaf count is a property of the configuration — the
// reference walk visits as many — not of the enumerator's internals or
// the build's worker count.
func TestUSumLeafCountPinned(t *testing.T) {
	const wantLeaves, wantExact, wantMC = 59012, 41, 0
	cfg, params := usumConfig(t, usumSmall, 0.025, 11, false), DefaultUSumParams()
	ref := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize, params: params}
	refLeaves := 0
	for _, st := range exactStates(ref, cfg.CacheSize, params.ExactLimit) {
		ref.enumerateRef(st.cached, st.touts, st.tab, newUAccumulator(st.cached, st.touts, ref))
		refLeaves += ref.scr.leaves
	}
	if refLeaves != wantLeaves {
		t.Fatalf("reference walk visits %d leaves, want %d", refLeaves, wantLeaves)
	}
	t.Cleanup(func() { SetTelemetry(nil) })
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		SetTelemetry(reg)
		ResetUSumMemo()
		if _, err := newCompactModelWorkers(cfg, params, workers); err != nil {
			t.Fatal(err)
		}
		leaves := reg.Counter("usum_exact_leaves_total").Value()
		exact := reg.Counter("usum_states_total", "method", "exact").Value()
		mc := reg.Counter("usum_states_total", "method", "mc").Value()
		if leaves != wantLeaves || exact != wantExact || mc != wantMC {
			t.Errorf("workers %d: %d leaves over %d exact + %d mc states, want %d over %d + %d",
				workers, leaves, exact, mc, wantLeaves, wantExact, wantMC)
		}
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("usum_exact_leaves_total %d\n", wantLeaves),
			fmt.Sprintf("usum_states_total{method=\"exact\"} %d\n", wantExact),
			fmt.Sprintf("usum_states_total{method=\"mc\"} %d\n", wantMC),
		} {
			if !strings.Contains(prom.String(), line) {
				t.Errorf("workers %d: /metrics exposition lacks %q", workers, line)
			}
		}
	}
}

// BenchmarkUSumEnumerate measures the exact u-sum path on every exact
// state of one small-scale configuration, with the memo reset each
// iteration so every state is evaluated. It reports the leaves visited
// per iteration and the cost per leaf.
func BenchmarkUSumEnumerate(b *testing.B) {
	cfg := usumConfig(b, usumSmall, 0.025, 11, false)
	e := &uEstimator{rs: cfg.Rules, sr: cfg.stepRates(), capacity: cfg.CacheSize, params: DefaultUSumParams()}
	var ids [][]int
	for _, st := range exactStates(e, cfg.CacheSize, e.params.ExactLimit) {
		ids = append(ids, st.cached)
	}
	leaves := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetUSumMemo()
		for _, c := range ids {
			e.estimate(c)
			leaves += e.scr.leaves
		}
	}
	b.StopTimer()
	ResetUSumMemo()
	b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leaves), "ns/leaf")
}
