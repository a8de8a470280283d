package flowtable

import (
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// TestTableTelemetryMatchesStats drives a table through a random workload
// and asserts that the telemetry counters agree exactly with the table's
// own Stats() ground truth, and that the counters account for every
// state change: one OnRemove callback per eviction and expiration, and an
// occupancy gauge equal to installs minus removals.
func TestTableTelemetryMatchesStats(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tbl.SetTelemetry(reg, "t0")
	removals := map[EvictionReason]int64{}
	tbl.OnRemove = func(_ int, reason EvictionReason, _ float64) { removals[reason]++ }

	rng := stats.NewRNG(7)
	now := 0.0
	for i := 0; i < 500; i++ {
		now += rng.Float64()
		f := flows.ID(rng.Intn(4)) // flows 0..2 covered, 3 uncovered
		if _, hit := tbl.Lookup(f, now); !hit {
			if j, ok := rs.HighestCovering(f); ok {
				tbl.Install(j, now)
			}
		}
	}
	// Let everything expire so expirations are observed too.
	tbl.Len(now + 1000)

	st := tbl.Stats()
	snap := reg.Snapshot()
	series := func(name string) int64 {
		return snap.Counters[telemetry.Series(name, "node", "t0")]
	}
	checks := []struct {
		name string
		want int64
	}{
		{"flowtable_lookups_total", st.Lookups},
		{"flowtable_lookup_hits_total", st.Hits},
		{"flowtable_lookup_misses_total", st.Misses},
		{"flowtable_installs_total", st.Installs},
		{"flowtable_evictions_total", st.Evictions},
		{"flowtable_expirations_total", st.Expirations},
	}
	for _, c := range checks {
		if got := series(c.name); got != c.want {
			t.Errorf("%s = %d, stats ground truth %d", c.name, got, c.want)
		}
	}
	if st.Lookups != st.Hits+st.Misses {
		t.Fatalf("stats self-inconsistent: %d != %d + %d", st.Lookups, st.Hits, st.Misses)
	}
	if st.Installs == 0 || st.Evictions == 0 || st.Expirations == 0 {
		t.Fatalf("workload failed to exercise install/evict/expire: %+v", st)
	}

	// Occupancy gauge must reflect the (now empty) table.
	if occ := snap.Gauges[telemetry.Series("flowtable_occupancy", "node", "t0")]; occ != int64(tbl.Len(now+1000)) {
		t.Errorf("occupancy gauge %d, table %d", occ, tbl.Len(now+1000))
	}

	// One OnRemove callback per eviction and expiration the counters saw.
	if got, want := removals[ReasonEvicted], series("flowtable_evictions_total"); got != want {
		t.Errorf("evicted callbacks %d, flowtable_evictions_total %d", got, want)
	}
	if got, want := removals[ReasonExpired], series("flowtable_expirations_total"); got != want {
		t.Errorf("expired callbacks %d, flowtable_expirations_total %d", got, want)
	}
	// Every install is matched by exactly one removal once the table has
	// drained, so the counters alone reconstruct the occupancy.
	installs := series("flowtable_installs_total")
	removed := series("flowtable_evictions_total") + series("flowtable_expirations_total")
	if installs-removed != int64(tbl.Len(now+1000)) {
		t.Errorf("installs %d - removals %d != occupancy %d", installs, removed, tbl.Len(now+1000))
	}
}
