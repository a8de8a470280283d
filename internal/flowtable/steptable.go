package flowtable

import (
	"fmt"
	"strings"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// StepTable is an executable copy of the basic Markov model's state and
// transition relation (§IV-A): an ordered cache of (rule, remaining-steps)
// pairs, advanced one event per step. It exists so the model can be tested
// against a reference implementation step for step.
type StepTable struct {
	rules    *rules.Set
	capacity int
	slots    []StepEntry // index 0 is the cache front
	step     int         // events processed (virtual step index)
}

// StepEntry is one (rule, remaining time) cache slot.
type StepEntry struct {
	RuleID int
	Exp    int // steps remaining before expiration
}

// NewStepTable returns an empty discrete-time table.
func NewStepTable(rs *rules.Set, capacity int) *StepTable {
	return &StepTable{rules: rs, capacity: capacity}
}

// Entries returns a copy of the cache contents, front first.
func (t *StepTable) Entries() []StepEntry {
	out := make([]StepEntry, len(t.slots))
	copy(out, t.slots)
	return out
}

// Contains reports whether ruleID is cached.
func (t *StepTable) Contains(ruleID int) bool {
	for _, e := range t.slots {
		if e.RuleID == ruleID {
			return true
		}
	}
	return false
}

// CachedSet returns the cached rule IDs as a bitset over rule indices.
func (t *StepTable) CachedSet() flows.Set {
	var s flows.Set
	for _, e := range t.slots {
		s.Add(flows.ID(e.RuleID))
	}
	return s
}

// PendingTimeout reports whether the table holds a zero-clock entry, in
// which case the basic model forces a timeout transition before any other
// event (§IV-A1).
func (t *StepTable) PendingTimeout() bool {
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
func (t *StepTable) StepTimeout() bool {
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
func (t *StepTable) StepNull() {
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
func (t *StepTable) StepArrival(f flows.ID) (ruleID int, hit, ok bool) {
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
func (t *StepTable) matchCached(f flows.ID) (slot int, ok bool) {
	best, bestPrio := -1, 0
	for i, e := range t.slots {
		r := t.rules.Rule(e.RuleID)
		if r.Covers(f) && (best < 0 || r.Priority > bestPrio) {
			best, bestPrio = i, r.Priority
		}
	}
	return best, best >= 0
}

// applyHit implements "flow arrival with covering rule in cache": the
// matched rule moves to the front with its clock reset (idle) or
// decremented (hard); every other clock decrements.
func (t *StepTable) applyHit(slot int) {
	e := t.slots[slot]
	r := t.rules.Rule(e.RuleID)
	if r.Kind == rules.HardTimeout {
		e.Exp--
	} else {
		e.Exp = r.Timeout
	}
	rest := make([]StepEntry, 0, len(t.slots))
	for i, o := range t.slots {
		if i == slot {
			continue
		}
		o.Exp--
		rest = append(rest, o)
	}
	t.slots = append([]StepEntry{e}, rest...)
}

// applyMiss implements "flow arrival with no covering rule in cache": the
// covering rule is installed at the front with a full clock; if the cache
// was at capacity the entry with the smallest remaining time is evicted;
// every surviving clock decrements.
func (t *StepTable) applyMiss(ruleID int) {
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
	front := StepEntry{RuleID: ruleID, Exp: t.rules.Rule(ruleID).Timeout}
	t.slots = append([]StepEntry{front}, t.slots...)
}

// Key returns a canonical string for the cache contents, usable as a
// Markov-state key.
func (t *StepTable) Key() string {
	var b strings.Builder
	for i, e := range t.slots {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d:%d", e.RuleID, e.Exp)
	}
	return b.String()
}
