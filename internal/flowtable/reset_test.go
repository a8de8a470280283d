package flowtable

import (
	"reflect"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/testutil"
)

// opRecord is one observable outcome of a scripted table operation.
type opRecord struct {
	Op   byte
	Arg  int
	At   float64
	OK   bool
	Val  float64
	Rule int
}

// tableScript drives a table through an operation sequence decoded from
// ops and logs every outcome, OnRemove callbacks included, so two tables
// that behave identically produce equal logs. Time never runs backwards.
type tableScript struct {
	tbl *Table
	now float64
	log []opRecord
}

func newTableScript(tbl *Table, now float64) *tableScript {
	s := &tableScript{tbl: tbl, now: now}
	tbl.OnRemove = func(id int, reason EvictionReason, at float64) {
		s.log = append(s.log, opRecord{Op: 'R', Arg: id, At: at, Rule: int(reason)})
	}
	return s
}

// run applies ops. Each byte picks an operation (low 3 bits) and its
// argument (the rest): a switch lookup (a miss installs the covering
// rule), a direct install or removal, a time step, or a read of Len,
// Cached and every rule's Remaining lifetime.
func (s *tableScript) run(ops []byte) {
	rs := s.tbl.rules
	for _, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case 0, 1:
			f := flows.ID(arg % scriptFlows)
			id, ok := s.tbl.Lookup(f, s.now)
			s.log = append(s.log, opRecord{Op: 'L', Arg: int(f), At: s.now, OK: ok, Rule: id})
			if !ok {
				if j, covered := rs.HighestCovering(f); covered {
					s.tbl.Install(j, s.now)
				}
			}
		case 2:
			j := arg % rs.Len()
			s.tbl.Install(j, s.now)
			s.log = append(s.log, opRecord{Op: 'I', Arg: j, At: s.now})
		case 3:
			j := arg % rs.Len()
			s.log = append(s.log, opRecord{Op: 'D', Arg: j, At: s.now, OK: s.tbl.Remove(j, s.now)})
		case 4, 5, 6:
			s.now += float64(arg) / 8 * s.tbl.stepSec
		case 7:
			s.log = append(s.log, opRecord{Op: 'N', At: s.now, Val: float64(s.tbl.Len(s.now))})
			for _, j := range s.tbl.Cached(s.now) {
				rem, _ := s.tbl.Remaining(j, s.now)
				s.log = append(s.log, opRecord{Op: 'C', Arg: j, At: s.now, Val: rem})
			}
		}
	}
}

// scriptFlows is the flow universe of scriptRules' rule sets.
const scriptFlows = 8

// scriptRules draws a small generated rule set whose timeouts are idle or
// hard as hardRatio says.
func scriptRules(tb testing.TB, seed int64, numRules int, hardRatio float64) *rules.Set {
	tb.Helper()
	rs, err := rules.Generate(rules.GenerateConfig{
		NumFlows: scriptFlows, NumRules: numRules, MaskBits: 3,
		Timeouts: []int{2, 3, 5, 8}, HardRatio: hardRatio,
	}, stats.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// statsDelta returns after − before, counter by counter.
func statsDelta(before, after Stats) Stats {
	d := Stats{
		Lookups:       after.Lookups - before.Lookups,
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Installs:      after.Installs - before.Installs,
		Evictions:     after.Evictions - before.Evictions,
		Expirations:   after.Expirations - before.Expirations,
		MatchesByRule: make([]int64, len(after.MatchesByRule)),
	}
	for j := range d.MatchesByRule {
		d.MatchesByRule[j] = after.MatchesByRule[j] - before.MatchesByRule[j]
	}
	return d
}

// TestTableResetMatchesNew holds Reset to New: a table reset across rule
// sets of different sizes, capacities and steps — growing, then
// shrinking — behaves exactly like a new one, stats included, and drops
// the callback and telemetry it had.
func TestTableResetMatchesNew(t *testing.T) {
	small := scriptRules(t, 3, 3, 0)
	large := scriptRules(t, 4, 8, 0.5)
	ops := make([]byte, 600)
	rng := stats.NewRNG(9)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	tbl, err := New(small, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	newTableScript(tbl, 0).run(ops)
	for i, tc := range []struct {
		rs       *rules.Set
		capacity int
		step     float64
	}{{large, 5, 0.25}, {small, 1, 1}, {large, 8, 0.1}, {small, 3, 0.5}} {
		tbl.SetMetrics(NewMetrics(nil, ""))
		if err := tbl.Reset(tc.rs, tc.capacity, tc.step); err != nil {
			t.Fatal(err)
		}
		if tbl.OnRemove != nil || tbl.tm != (Metrics{}) {
			t.Fatalf("reset %d kept its callback or telemetry", i)
		}
		fresh, err := New(tc.rs, tc.capacity, tc.step)
		if err != nil {
			t.Fatal(err)
		}
		got, want := newTableScript(tbl, 0), newTableScript(fresh, 0)
		got.run(ops)
		want.run(ops)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("reset %d: log diverges from New (%d vs %d records)", i, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(tbl.Stats(), fresh.Stats()) || tbl.Capacity() != fresh.Capacity() {
			t.Fatalf("reset %d: stats %+v, New %+v", i, tbl.Stats(), fresh.Stats())
		}
	}
	if err := tbl.Reset(small, 0, 1); err == nil {
		t.Fatal("Reset accepted capacity 0")
	}
	if err := tbl.Reset(small, 1, 0); err == nil {
		t.Fatal("Reset accepted a zero step")
	}
}

// TestTableResetSteadyStateAllocs gates the trial loop's table reuse: a
// Reset, a replayed traffic window and a CopyCacheFrom into a second
// table, then probes on the copy, allocate nothing once both tables are
// warm. (Name matches the make alloc-gate regex.)
func TestTableResetSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rs := scriptRules(t, 5, 6, 0.5)
	rng := stats.NewRNG(11)
	type arrival struct {
		at float64
		f  flows.ID
	}
	window := make([]arrival, 40)
	now := 0.0
	for i := range window {
		now += rng.Exp(8)
		window[i] = arrival{now, flows.ID(rng.Intn(8))}
	}
	var base, replica Table
	op := func(tbl *Table, f flows.ID, at float64) {
		if _, hit := tbl.Lookup(f, at); !hit {
			if j, ok := rs.HighestCovering(f); ok {
				tbl.Install(j, at)
			}
		}
	}
	trial := func() {
		if err := base.Reset(rs, 3, 0.25); err != nil {
			t.Fatal(err)
		}
		for _, a := range window {
			op(&base, a.f, a.at)
		}
		for k := 0; k < 4; k++ { // one copy per attacker
			replica.CopyCacheFrom(&base)
			for f := 0; f < 8; f += 3 {
				op(&replica, flows.ID(f), now+float64(f))
			}
		}
	}
	trial()
	if avg := testing.AllocsPerRun(200, trial); avg != 0 {
		t.Fatalf("Reset + replay + CopyCacheFrom allocates %v allocs/run, want 0", avg)
	}
}

// FuzzTableCopyCacheFrom holds CopyCacheFrom to its contract: an
// operation sequence builds src, a dirty table (another rule set,
// capacity and step, its own history) copies it, and the same
// continuation then runs on src and on the copy. Both must agree step by
// step — lookups, removals, expiry and eviction order, lifetimes — and the
// copy's stats must count the continuation alone.
func FuzzTableCopyCacheFrom(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), []byte{0, 8, 16, 4, 24, 7}, []byte{2, 10}, []byte{0, 4, 8, 7, 5, 16, 7})
	f.Add(int64(7), uint8(1), uint8(2), []byte{2, 10, 18, 26, 4, 3}, []byte{0, 0, 0}, []byte{6, 6, 6, 7, 0, 8, 16})
	f.Add(int64(42), uint8(6), uint8(1), []byte{0, 4, 0, 4, 0, 4, 8, 12}, []byte{}, []byte{7, 2, 7, 6, 7})
	f.Fuzz(func(t *testing.T, seed int64, capacity, hard uint8, prefix, dirty, cont []byte) {
		if len(prefix)+len(dirty)+len(cont) > 4096 {
			t.Skip("sequence too long")
		}
		rs := scriptRules(t, seed, 6, float64(hard%3)/2)
		src, err := New(rs, 1+int(capacity)%7, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pre := newTableScript(src, 0)
		pre.run(prefix)

		dst, err := New(scriptRules(t, seed+1, 1+int(capacity)%8, 0.5), 1+int(capacity>>3)%4, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		newTableScript(dst, 0).run(dirty)
		dst.CopyCacheFrom(src)

		before := src.Stats()
		want, got := newTableScript(src, pre.now), newTableScript(dst, pre.now)
		want.run(cont)
		got.run(cont)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("copy diverges from src:\n got %+v\nwant %+v", got.log, want.log)
		}
		if d := statsDelta(before, src.Stats()); !reflect.DeepEqual(dst.Stats(), d) {
			t.Fatalf("copy stats %+v, want the continuation's %+v", dst.Stats(), d)
		}
		if dst.Occupancy() != src.Occupancy() || dst.Capacity() != src.Capacity() {
			t.Fatalf("copy occupancy/capacity %d/%d, src %d/%d", dst.Occupancy(), dst.Capacity(), src.Occupancy(), src.Capacity())
		}
	})
}
