package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// stepTable is an executable copy of the basic Markov model's state and
// transition relation (§IV-A): an ordered cache of (rule, remaining-steps)
// pairs, advanced one event per step. It exists so the model can be tested
// against a reference implementation step for step.
type stepTable struct {
	rules    *rules.Set
	capacity int
	slots    []stepEntry // index 0 is the cache front
	step     int         // events processed (virtual step index)
}

// stepEntry is one (rule, remaining time) cache slot.
type stepEntry struct {
	RuleID int
	Exp    int // steps remaining before expiration
}

// newStepTable returns an empty discrete-time table.
func newStepTable(rs *rules.Set, capacity int) *stepTable {
	return &stepTable{rules: rs, capacity: capacity}
}

// Entries returns a copy of the cache contents, front first.
func (t *stepTable) Entries() []stepEntry {
	out := make([]stepEntry, len(t.slots))
	copy(out, t.slots)
	return out
}

// Contains reports whether ruleID is cached.
func (t *stepTable) Contains(ruleID int) bool {
	for _, e := range t.slots {
		if e.RuleID == ruleID {
			return true
		}
	}
	return false
}

// CachedSet returns the cached rule IDs as a bitset over rule indices.
func (t *stepTable) CachedSet() flows.Set {
	var s flows.Set
	for _, e := range t.slots {
		s.Add(flows.ID(e.RuleID))
	}
	return s
}

// PendingTimeout reports whether the table holds a zero-clock entry, in
// which case the basic model forces a timeout transition before any other
// event (§IV-A1).
func (t *stepTable) PendingTimeout() bool {
	for _, e := range t.slots {
		if e.Exp == 0 {
			return true
		}
	}
	return false
}

// StepTimeout performs the model's timeout transition: it removes the
// deepest zero-clock entry and shifts later entries up, leaving clocks
// untouched. It reports whether a timeout was pending.
func (t *stepTable) StepTimeout() bool {
	idx := -1
	for i, e := range t.slots {
		if e.Exp == 0 {
			idx = i // keep scanning: the paper removes the largest such i
		}
	}
	if idx < 0 {
		return false
	}
	t.slots = append(t.slots[:idx], t.slots[idx+1:]...)
	t.step++
	return true
}

// StepNull performs the "no flow arrived" transition: every clock
// decrements by one. It must not be called while a timeout is pending.
func (t *stepTable) StepNull() {
	for i := range t.slots {
		t.slots[i].Exp--
	}
	t.step++
}

// StepArrival performs the flow-arrival transition for flow f and returns
// the matched or installed rule ID and whether the arrival was a cache hit.
// It must not be called while a timeout is pending. If no rule in the rule
// set covers f the table is left unchanged except for clock decrements and
// ok is false.
func (t *stepTable) StepArrival(f flows.ID) (ruleID int, hit, ok bool) {
	if slot, cached := t.matchCached(f); cached {
		id := t.slots[slot].RuleID
		t.applyHit(slot)
		t.step++
		return id, true, true
	}
	j, covered := t.rules.HighestCovering(f)
	if !covered {
		// An uncovered arrival only decrements clocks — the null
		// transition; StepNull accounts for the step.
		t.StepNull()
		return 0, false, false
	}
	t.applyMiss(j)
	t.step++
	return j, false, true
}

// matchCached returns the position of the highest-priority cached rule
// covering f.
func (t *stepTable) matchCached(f flows.ID) (slot int, ok bool) {
	best, bestPrio := -1, 0
	for i, e := range t.slots {
		r := t.rules.Rule(e.RuleID)
		if r.Cover.Contains(f) && (best < 0 || r.Priority > bestPrio) {
			best, bestPrio = i, r.Priority
		}
	}
	return best, best >= 0
}

// applyHit implements "flow arrival with covering rule in cache": the
// matched rule moves to the front with its clock reset (idle) or
// decremented (hard); every other clock decrements.
func (t *stepTable) applyHit(slot int) {
	e := t.slots[slot]
	r := t.rules.Rule(e.RuleID)
	if r.Kind == rules.HardTimeout {
		e.Exp--
	} else {
		e.Exp = r.Timeout
	}
	rest := make([]stepEntry, 0, len(t.slots))
	for i, o := range t.slots {
		if i == slot {
			continue
		}
		o.Exp--
		rest = append(rest, o)
	}
	t.slots = append([]stepEntry{e}, rest...)
}

// applyMiss implements "flow arrival with no covering rule in cache": the
// covering rule is installed at the front with a full clock; if the cache
// was at capacity the entry with the smallest remaining time is evicted;
// every surviving clock decrements.
func (t *stepTable) applyMiss(ruleID int) {
	if len(t.slots) >= t.capacity {
		victim, best := -1, 0
		for i, e := range t.slots {
			if victim < 0 || e.Exp < best {
				victim, best = i, e.Exp
			}
		}
		t.slots = append(t.slots[:victim], t.slots[victim+1:]...)
	}
	for i := range t.slots {
		t.slots[i].Exp--
	}
	front := stepEntry{RuleID: ruleID, Exp: t.rules.Rule(ruleID).Timeout}
	t.slots = append([]stepEntry{front}, t.slots...)
}

// Key returns a canonical string for the cache contents, usable as a
// Markov-state key.
func (t *stepTable) Key() string {
	var b strings.Builder
	for i, e := range t.slots {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d:%d", e.RuleID, e.Exp)
	}
	return b.String()
}

// fig3Rules is the rule structure of the paper's Figure 3: rule1 covers
// f1; rule2 covers f1,f2 with lower priority; rule3 covers f3.
func fig3Rules(t *testing.T) *rules.Set {
	t.Helper()
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

func TestStepTableFigure3(t *testing.T) {
	rs := fig3Rules(t)
	st := newStepTable(rs, 2)

	// f3 arrives: rule3 installed with clock 7.
	if id, hit, ok := st.StepArrival(2); !ok || hit || id != 2 {
		t.Fatalf("f3 arrival: id=%d hit=%v ok=%v", id, hit, ok)
	}
	// f1 arrives: rule1 (highest covering) installed with clock 4; rule3
	// decrements to 6. State becomes [(rule1:4), (rule3:6)].
	if id, hit, _ := st.StepArrival(0); hit || id != 0 {
		t.Fatalf("f1 arrival: id=%d hit=%v", id, hit)
	}
	want := []stepEntry{{RuleID: 0, Exp: 4}, {RuleID: 2, Exp: 6}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}

	// Three nulls: [(rule1:1), (rule3:3)].
	st.StepNull()
	st.StepNull()
	st.StepNull()
	// f2 arrives: no covering rule cached (rule1 covers only f1).
	// rule2 installs; cache full → evict rule1 (smallest remaining 1 < 3).
	if id, hit, _ := st.StepArrival(1); hit || id != 1 {
		t.Fatalf("f2 arrival: id=%d hit=%v", id, hit)
	}
	want = []stepEntry{{RuleID: 1, Exp: 10}, {RuleID: 2, Exp: 2}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}

	// f1 now hits rule2 (only cached cover): clock resets to 10, moves to
	// front; rule3 decrements.
	if id, hit, _ := st.StepArrival(0); !hit || id != 1 {
		t.Fatalf("f1 hit: id=%d hit=%v", id, hit)
	}
	want = []stepEntry{{RuleID: 1, Exp: 10}, {RuleID: 2, Exp: 1}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}
}

func TestStepTableTimeout(t *testing.T) {
	rs := fig3Rules(t)
	st := newStepTable(rs, 2)
	st.StepArrival(2) // rule3:7
	st.StepArrival(0) // rule1:4, rule3:6
	for i := 0; i < 4; i++ {
		if st.PendingTimeout() {
			t.Fatalf("premature timeout at null %d", i)
		}
		st.StepNull()
	}
	// rule1 clock is now 0.
	if !st.PendingTimeout() {
		t.Fatal("timeout not pending")
	}
	if !st.StepTimeout() {
		t.Fatal("StepTimeout returned false")
	}
	want := []stepEntry{{RuleID: 2, Exp: 2}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}
	if st.StepTimeout() {
		t.Fatal("timeout fired with no zero clock")
	}
}

func TestStepTableTimeoutRemovesDeepest(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 2, Timeout: 1},
		{Cover: flows.SetOf(1), Priority: 1, Timeout: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := newStepTable(rs, 2)
	st.StepArrival(0) // [rule0:1]
	st.StepArrival(1) // [rule1:1, rule0:0]
	// Both will reach 0; paper removes the deepest zero first.
	if !st.StepTimeout() {
		t.Fatal("no timeout")
	}
	want := []stepEntry{{RuleID: 1, Exp: 1}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}
}

func TestStepTableHardTimeoutDecrementsOnHit(t *testing.T) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 1, Timeout: 3, Kind: rules.HardTimeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := newStepTable(rs, 1)
	st.StepArrival(0) // clock 3
	if _, hit, _ := st.StepArrival(0); !hit {
		t.Fatal("expected hit")
	}
	want := []stepEntry{{RuleID: 0, Exp: 2}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v (hard timeout must not reset)", got, want)
	}
}

func TestStepTableUncoveredFlow(t *testing.T) {
	rs := fig3Rules(t)
	st := newStepTable(rs, 2)
	st.StepArrival(2)
	if _, _, ok := st.StepArrival(9); ok {
		t.Fatal("uncovered flow reported covered")
	}
	// Clocks must still have decremented (the step elapsed).
	want := []stepEntry{{RuleID: 2, Exp: 6}}
	if got := st.Entries(); !entriesEqual(got, want) {
		t.Fatalf("state = %v, want %v", got, want)
	}
}

func TestStepTableKeyAndSets(t *testing.T) {
	rs := fig3Rules(t)
	st := newStepTable(rs, 2)
	if st.Key() != "" {
		t.Fatalf("empty key = %q", st.Key())
	}
	st.StepArrival(2)
	st.StepArrival(0)
	if st.Key() != "0:4|2:6" {
		t.Fatalf("key = %q", st.Key())
	}
	if !st.Contains(0) || !st.Contains(2) || st.Contains(1) {
		t.Fatal("contains wrong")
	}
	cs := st.CachedSet()
	if !cs.Equal(flows.SetOf(0, 2)) {
		t.Fatalf("cached set = %v", cs)
	}
}

func entriesEqual(a, b []stepEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStepTablePropertyInvariants drives the step table with random event
// sequences and checks the §IV-A state invariants after every step: at
// most `capacity` entries, no duplicate rules, and clocks within [0, t_j].
func TestStepTablePropertyInvariants(t *testing.T) {
	rs := fig3Rules(t)
	check := func(st *stepTable) error {
		seen := map[int]bool{}
		entries := st.Entries()
		if len(entries) > 2 {
			return fmt.Errorf("over capacity: %v", entries)
		}
		for _, e := range entries {
			if seen[e.RuleID] {
				return fmt.Errorf("duplicate rule: %v", entries)
			}
			seen[e.RuleID] = true
			if e.Exp < 0 || e.Exp > rs.Rule(e.RuleID).Timeout {
				return fmt.Errorf("clock out of range: %v", entries)
			}
		}
		return nil
	}
	f := func(events []uint8) bool {
		st := newStepTable(rs, 2)
		for _, ev := range events {
			if st.PendingTimeout() {
				st.StepTimeout()
			} else if ev%4 == 3 {
				st.StepNull()
			} else {
				st.StepArrival(flows.ID(ev % 4)) // includes uncovered flow 3
			}
			if err := check(st); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
