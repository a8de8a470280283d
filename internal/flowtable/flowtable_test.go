package flowtable

import (
	"testing"
	"testing/quick"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

func testRules(t *testing.T) *rules.Set {
	t.Helper()
	// Figure 3 of the paper: rule1 covers f1; rule2 covers f1,f2 with
	// lower priority; rule3 covers f3.
	s, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 3, Timeout: 4},
		{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 10},
		{Name: "rule3", Cover: flows.SetOf(2), Priority: 1, Timeout: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	rs := testRules(t)
	if _, err := New(rs, 0, 1); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := New(rs, 1, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestTableMissInstallHit(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(0, 0); ok {
		t.Fatal("hit in empty table")
	}
	tbl.Install(0, 0)
	if id, ok := tbl.Lookup(0, 1); !ok || id != 0 {
		t.Fatalf("lookup after install: %d %v", id, ok)
	}
	if !tbl.Contains(0, 1) || tbl.Len(1) != 1 {
		t.Fatal("contains/len wrong")
	}
}

func TestTableIdleTimeoutRefresh(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1) // rule1 idle timeout = 4s
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(0, 0)
	// A match at t=3 refreshes the idle timer.
	if _, ok := tbl.Lookup(0, 3); !ok {
		t.Fatal("miss at t=3")
	}
	if !tbl.Contains(0, 6.5) {
		t.Fatal("expired despite refresh (expiry should be 3+4=7)")
	}
	if tbl.Contains(0, 7) {
		t.Fatal("still cached at expiry")
	}
}

func TestTableHardTimeoutNoRefresh(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 1, Timeout: 4, Kind: rules.HardTimeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := New(rs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(0, 0)
	tbl.Lookup(0, 3) // match must NOT extend a hard timeout
	if tbl.Contains(0, 4) {
		t.Fatal("hard-timeout rule survived past install+timeout")
	}
}

func TestTableEvictsShortestRemaining(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var removed []int
	var reasons []EvictionReason
	tbl.OnRemove = func(id int, reason EvictionReason, _ float64) {
		removed = append(removed, id)
		reasons = append(reasons, reason)
	}
	tbl.Install(0, 0) // rule1: expires at 4
	tbl.Install(2, 0) // rule3: expires at 7
	tbl.Install(1, 1) // table full: evict rule1 (remaining 3 < 6)
	if tbl.Contains(0, 1) {
		t.Fatal("rule1 should have been evicted")
	}
	if !tbl.Contains(1, 1) || !tbl.Contains(2, 1) {
		t.Fatal("rule2/rule3 should be cached")
	}
	if len(removed) != 1 || removed[0] != 0 || reasons[0] != ReasonEvicted {
		t.Fatalf("removals = %v %v", removed, reasons)
	}
}

func TestTableExpireCallback(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []EvictionReason
	tbl.OnRemove = func(_ int, reason EvictionReason, _ float64) { reasons = append(reasons, reason) }
	tbl.Install(0, 0)
	tbl.Len(100)
	if len(reasons) != 1 || reasons[0] != ReasonExpired {
		t.Fatalf("reasons = %v", reasons)
	}
}

func TestTableReinstallRefreshes(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(0, 0)
	tbl.Install(0, 3)
	if rem, ok := tbl.Remaining(0, 3); !ok || rem != 4 {
		t.Fatalf("remaining = %v %v", rem, ok)
	}
	if tbl.Len(3) != 1 {
		t.Fatal("duplicate entry after reinstall")
	}
}

func TestTablePriorityMatch(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(1, 0) // rule2 covers f1 too, lower priority
	tbl.Install(0, 0) // rule1 higher priority for f1
	if id, ok := tbl.Lookup(0, 1); !ok || id != 0 {
		t.Fatalf("f1 matched rule %d, want rule1 (0)", id)
	}
	if id, ok := tbl.Lookup(1, 1); !ok || id != 1 {
		t.Fatalf("f2 matched rule %d, want rule2 (1)", id)
	}
}

func TestTableRemove(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(0, 0)
	if !tbl.Remove(0, 1) {
		t.Fatal("remove reported not cached")
	}
	if tbl.Remove(0, 1) {
		t.Fatal("double remove reported cached")
	}
}

func TestTableCached(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Install(2, 0)
	tbl.Install(0, 0)
	got := tbl.Cached(1)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("cached = %v", got)
	}
	if tbl.Capacity() != 3 {
		t.Fatal("capacity accessor")
	}
}

func TestTableStats(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Lookup(0, 0) // miss
	tbl.Install(0, 0)
	tbl.Lookup(0, 1)  // hit on rule0
	tbl.Install(2, 1) // capacity 1: evicts rule0
	tbl.Lookup(2, 10) // rule2 (timeout 7s) expired by t=10: miss + expiration
	st := tbl.Stats()
	if st.Lookups != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("lookup stats = %+v", st)
	}
	if st.Installs != 2 || st.Evictions != 1 || st.Expirations != 1 {
		t.Fatalf("mutation stats = %+v", st)
	}
	if st.MatchesByRule[0] != 1 || st.MatchesByRule[2] != 0 {
		t.Fatalf("per-rule stats = %v", st.MatchesByRule)
	}
	// Snapshot must be a copy.
	st.MatchesByRule[0] = 99
	if tbl.Stats().MatchesByRule[0] == 99 {
		t.Fatal("stats alias internal state")
	}
}

// TestTablePropertyCapacity does the same for the continuous-time table.
func TestTablePropertyCapacity(t *testing.T) {
	rs := testRules(t)
	f := func(events []uint8) bool {
		tbl, err := New(rs, 2, 1)
		if err != nil {
			return false
		}
		now := 0.0
		for _, ev := range events {
			now += float64(ev%7) * 0.3
			fid := flows.ID(ev % 4)
			if _, hit := tbl.Lookup(fid, now); !hit {
				if j, covered := rs.HighestCovering(fid); covered {
					tbl.Install(j, now)
				}
			}
			if tbl.Len(now) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
