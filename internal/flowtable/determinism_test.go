package flowtable

import (
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

// removal is one OnRemove callback observation.
type removal struct {
	ID     int
	Reason EvictionReason
	At     float64
}

// runPoissonRemovalTrace replays one synthetic trial — Poisson arrivals
// over the §VI-A-style generated rule set through a small reactive table —
// and returns the complete rule-removal event sequence (expirations and
// evictions, in callback order).
func runPoissonRemovalTrace(t *testing.T, seed int64) []removal {
	t.Helper()
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.05), stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := New(rs, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var out []removal
	tbl.OnRemove = func(id int, reason EvictionReason, at float64) {
		out = append(out, removal{ID: id, Reason: reason, At: at})
	}
	rng := stats.NewRNG(seed + 1)
	now := 0.0
	for i := 0; i < 4000; i++ {
		now += rng.Exp(24) // ~1.5 arrivals per flow-second over 16 flows
		f := flows.ID(rng.Intn(16))
		if _, hit := tbl.Lookup(f, now); !hit {
			if j, ok := rs.HighestCovering(f); ok {
				tbl.Install(j, now)
			}
		}
	}
	tbl.Len(now + 1e6) // flush: everything left expires in one batch
	return out
}

// TestExpireOrderReproducible is the regression test for the
// map-iteration nondeterminism the original expire loop had: the same
// trial run twice must produce byte-identical rule-removal event
// sequences, since OnRemove ordering feeds FLOW_REMOVED notifications,
// event logs, and span forests.
func TestExpireOrderReproducible(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := runPoissonRemovalTrace(t, seed)
		b := runPoissonRemovalTrace(t, seed)
		if len(a) == 0 {
			t.Fatalf("seed %d: trial produced no removals", seed)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: removal counts differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: removal %d diverged: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestExpireBatchOrderDeterministic pins the order contract itself:
// when one call processes several expirations, they fire in (expiry
// time, rule ID) order — including the rule-ID tie-break for entries
// expiring at the same instant.
func TestExpireBatchOrderDeterministic(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "a", Cover: flows.SetOf(0), Priority: 4, Timeout: 6},
		{Name: "b", Cover: flows.SetOf(1), Priority: 3, Timeout: 2},
		{Name: "c", Cover: flows.SetOf(2), Priority: 2, Timeout: 6}, // ties with "a"
		{Name: "d", Cover: flows.SetOf(3), Priority: 1, Timeout: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := New(rs, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []removal
	tbl.OnRemove = func(id int, reason EvictionReason, at float64) {
		got = append(got, removal{ID: id, Reason: reason, At: at})
	}
	tbl.Install(2, 0) // expires at 6 (installation order scrambled on purpose)
	tbl.Install(0, 0) // expires at 6: same instant, smaller ID fires first
	tbl.Install(3, 0) // expires at 4
	tbl.Install(1, 0) // expires at 2
	tbl.Len(10)       // one batch expires all four
	want := []removal{
		{ID: 1, Reason: ReasonExpired, At: 10},
		{ID: 3, Reason: ReasonExpired, At: 10},
		{ID: 0, Reason: ReasonExpired, At: 10},
		{ID: 2, Reason: ReasonExpired, At: 10},
	}
	if len(got) != len(want) {
		t.Fatalf("removals = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("removal %d = %+v, want %+v (expirations must fire in (time, rule ID) order)", i, got[i], want[i])
		}
	}
}

// TestIdleRefreshInvalidatesQueuedExpiry exercises the lazy-invalidation
// path directly: a refreshed idle timer must survive its originally
// queued expiry, and the stale index node must not fire a second removal
// when it surfaces.
func TestIdleRefreshInvalidatesQueuedExpiry(t *testing.T) {
	rs := testRules(t) // rule0: idle timeout 4 s
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	removals := 0
	tbl.OnRemove = func(int, EvictionReason, float64) { removals++ }
	tbl.Install(0, 0)
	for now := 3.0; now <= 30; now += 3 { // refresh before every expiry
		if _, ok := tbl.Lookup(0, now); !ok {
			t.Fatalf("rule expired at t=%v despite refreshes", now)
		}
	}
	if removals != 0 {
		t.Fatalf("%d removals fired for a continuously refreshed rule", removals)
	}
	if tbl.Contains(0, 40) {
		t.Fatal("rule survived past its final idle window")
	}
	if removals != 1 {
		t.Fatalf("removals = %d after final expiry, want exactly 1 (stale index nodes must not re-fire)", removals)
	}
}
