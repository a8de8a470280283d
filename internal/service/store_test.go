package service

import (
	"sync"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/telemetry"
)

// storeSpecs returns n target specs on distinct config seeds.
func storeSpecs(n int) []experiment.RecordingSpec {
	out := make([]experiment.RecordingSpec, n)
	for i := range out {
		out[i] = testSpec("store", 1, 1, 1).Target
		out[i].ConfigSeed = int64(11 + i)
	}
	return out
}

func mustGet(t *testing.T, s *Store, spec experiment.RecordingSpec) *Model {
	t.Helper()
	m, err := s.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStoreSingleflight(t *testing.T) {
	s := NewStore(4, 0, nil)
	spec := storeSpecs(1)[0]
	const goroutines = 16
	models := make([]*Model, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Get(spec)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if models[i] != models[0] {
			t.Fatalf("goroutine %d got a distinct model: singleflight failed", i)
		}
	}
	st := s.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("builds/misses/hits = %d/%d/%d, want 1/1/%d", st.Builds, st.Misses, st.Hits, goroutines-1)
	}
	if st.Models != 1 || st.Bytes <= 0 {
		t.Fatalf("models=%d bytes=%d, want 1 resident entry with accounted bytes", st.Models, st.Bytes)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2, 0, nil)
	specs := storeSpecs(3)
	m0 := mustGet(t, s, specs[0])
	mustGet(t, s, specs[1])
	// Touch spec 0 so spec 1 becomes the LRU tail, then insert spec 2.
	mustGet(t, s, specs[0])
	mustGet(t, s, specs[2])
	if st := s.Stats(); st.Models != 2 || st.Evictions != 1 || st.Builds != 3 {
		t.Fatalf("models=%d evictions=%d builds=%d, want 2/1/3", st.Models, st.Evictions, st.Builds)
	}
	// Spec 0 is still resident (a hit on the same model); spec 1 was
	// evicted (a miss and a rebuild).
	before := s.Stats()
	if m := mustGet(t, s, specs[0]); m != m0 {
		t.Fatal("recently-used entry was evicted instead of the LRU tail")
	}
	if st := s.Stats(); st.Hits != before.Hits+1 || st.Builds != before.Builds {
		t.Fatalf("touched entry: hits %d→%d, builds %d→%d", before.Hits, st.Hits, before.Builds, st.Builds)
	}
	mustGet(t, s, specs[1])
	if st := s.Stats(); st.Misses != before.Misses+1 || st.Builds != before.Builds+1 {
		t.Fatal("LRU-tail entry survived past capacity")
	}
}

// TestStoreOwnsUSumMemo: a store's first build of a spec evaluates every
// state, even when a one-shot build of the same spec ran before it, and
// the rebuild of that spec after the store evicted it answers both chains
// from the store's own memo. Each build makes one memo lookup, so a store
// miss makes two: the chain M and the target-conditioned M₀. The lookups
// count on the store's own registry, so a second store in the process
// reports its own.
func TestStoreOwnsUSumMemo(t *testing.T) {
	specs := storeSpecs(2)
	if _, err := specs[0].BuildConfig(nil); err != nil {
		t.Fatal(err)
	}
	newStore := func() (*Store, func() (hits, misses int64)) {
		reg := telemetry.NewRegistry()
		s := NewStore(1, 0, reg)
		return s, func() (int64, int64) {
			return reg.Counter("usum_memo_lookups", "result", "hit").Value(),
				reg.Counter("usum_memo_lookups", "result", "miss").Value()
		}
	}
	s, lookups := newStore()
	mustGet(t, s, specs[0])
	if hits, misses := lookups(); hits != 0 || misses != 2 {
		t.Fatalf("first store build: %d memo hits, %d misses; want 0 and 2", hits, misses)
	}
	mustGet(t, s, specs[1])
	if hits, misses := lookups(); hits != 0 || misses != 4 {
		t.Fatalf("second spec: %d memo hits, %d misses; want 0 and 4", hits, misses)
	}
	mustGet(t, s, specs[0])
	if hits, misses := lookups(); hits != 2 || misses != 4 {
		t.Fatalf("rebuild after eviction: %d memo hits, %d misses; want 2 and 4", hits, misses)
	}
	if st := s.Stats(); st.Builds != 3 || st.Evictions != 2 {
		t.Fatalf("builds=%d evictions=%d, want 3/2", st.Builds, st.Evictions)
	}

	other, otherLookups := newStore()
	mustGet(t, other, specs[0])
	if hits, misses := otherLookups(); hits != 0 || misses != 2 {
		t.Fatalf("second store's first build: %d memo hits, %d misses; want 0 and 2", hits, misses)
	}
	if hits, misses := lookups(); hits != 2 || misses != 4 {
		t.Fatalf("first store after the second built: %d memo hits, %d misses; want 2 and 4", hits, misses)
	}
}

// TestStoresReportDisjointBuilds: each store's builds report into its own
// registry only. Two stores in one process count disjoint model builds
// and evaluated states, and a one-shot build between them, in no build
// context, moves neither store's counters.
func TestStoresReportDisjointBuilds(t *testing.T) {
	t.Parallel()
	specs := storeSpecs(2)
	type counts struct{ builds, states int64 }
	newStore := func() (*Store, func() counts) {
		reg := telemetry.NewRegistry()
		return NewStore(4, 0, reg), func() counts {
			return counts{
				builds: reg.Histogram("model_build_ms", telemetry.MillisecondBuckets()).Count(),
				states: reg.Counter("usum_states_total", "method", "exact").Value(),
			}
		}
	}
	a, aCounts := newStore()
	mustGet(t, a, specs[0])
	afterA := aCounts()
	if afterA.builds != 2 || afterA.states == 0 {
		t.Fatalf("first store: %d model builds over %d states; want 2 (M and M₀) that evaluate", afterA.builds, afterA.states)
	}
	nc, err := specs[1].BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewCompactModel(nc.Core, nil); err != nil {
		t.Fatal(err)
	}
	if got := aCounts(); got != afterA {
		t.Fatalf("one-shot builds moved the first store's counters from %+v to %+v", afterA, got)
	}
	b, bCounts := newStore()
	if got := bCounts(); got != (counts{}) {
		t.Fatalf("new store starts at %+v, want zero", got)
	}
	mustGet(t, b, specs[1])
	mustGet(t, b, specs[0])
	afterB := bCounts()
	if afterB.builds != 4 || afterB.states <= afterA.states {
		t.Fatalf("second store: %d model builds over %d states; want 4 over more than the first store's %d", afterB.builds, afterB.states, afterA.states)
	}
	if got := aCounts(); got != afterA {
		t.Fatalf("second store's builds moved the first store's counters from %+v to %+v", afterA, got)
	}
}

func TestStoreByteBudget(t *testing.T) {
	specs := storeSpecs(3)
	sizes := make([]int64, len(specs))
	for i, spec := range specs {
		nc, err := spec.BuildConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sizes[i] = nc.Selector.MemBytes(); sizes[i] <= 0 {
			t.Fatalf("spec %d: MemBytes = %d, want > 0", i, sizes[i])
		}
	}
	// A budget for the two most recent models but not all three: the
	// third insert must evict the oldest.
	budget := max(sizes[0]+sizes[1], sizes[1]+sizes[2])
	s := NewStore(100, budget, nil)
	for _, spec := range specs {
		mustGet(t, s, spec)
	}
	st := s.Stats()
	if st.Models != 2 || st.Evictions != 1 {
		t.Fatalf("models=%d evictions=%d under byte budget, want 2/1", st.Models, st.Evictions)
	}
	if st.Bytes != sizes[1]+sizes[2] || st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d, want %d within budget %d", st.Bytes, sizes[1]+sizes[2], st.MaxBytes)
	}

	// A budget below one model still keeps the most recently used entry.
	tiny := NewStore(100, 1, nil)
	for i, spec := range specs {
		m := mustGet(t, tiny, spec)
		st := tiny.Stats()
		if st.Models != 1 || st.Bytes != sizes[i] {
			t.Fatalf("after spec %d: models=%d bytes=%d, want the MRU entry alone (%d bytes)", i, st.Models, st.Bytes, sizes[i])
		}
		if again := mustGet(t, tiny, spec); again != m {
			t.Fatalf("spec %d: the MRU entry was evicted", i)
		}
	}
}

func TestStoreCachesBuildError(t *testing.T) {
	// No flow's absence probability can reach [0.999999, 1] over the
	// window, so every sampling attempt fails and BuildConfig errors.
	spec := storeSpecs(1)[0]
	spec.Params.AbsenceLo, spec.Params.AbsenceHi = 0.999999, 1
	s := NewStore(4, 0, nil)
	_, err1 := s.Get(spec)
	if err1 == nil {
		t.Fatal("unsatisfiable spec built a model")
	}
	_, err2 := s.Get(spec)
	if err2 != err1 {
		t.Fatalf("second Get returned a fresh error (%v), want the cached one", err2)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 1 || st.Builds != 0 || st.Models != 1 {
		t.Fatalf("misses=%d hits=%d builds=%d models=%d, want 1/1/0/1", st.Misses, st.Hits, st.Builds, st.Models)
	}
}
