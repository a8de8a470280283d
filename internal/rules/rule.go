// Package rules implements the paper's rule abstraction: a rule is the set
// of flow identifiers it covers (§IV), plus a priority that totally orders
// rules, a timeout duration (in model steps), and a timeout kind (idle or
// hard, per OpenFlow).
package rules

import (
	"errors"
	"fmt"
	"sort"

	"flowrecon/internal/flows"
)

// TimeoutKind distinguishes OpenFlow's two rule-expiration policies
// (footnote 1 of the paper).
type TimeoutKind int

// Timeout kinds.
const (
	// IdleTimeout expires a rule that has matched no packet for its
	// timeout duration; a match resets the countdown.
	IdleTimeout TimeoutKind = iota + 1
	// HardTimeout expires a rule a fixed duration after installation,
	// regardless of matches.
	HardTimeout
)

// String implements fmt.Stringer.
func (k TimeoutKind) String() string {
	switch k {
	case IdleTimeout:
		return "idle"
	case HardTimeout:
		return "hard"
	default:
		return fmt.Sprintf("TimeoutKind(%d)", int(k))
	}
}

// Rule is a forwarding rule. Following §IV, the action is irrelevant to the
// attack, so a rule is identified with the set of flows it covers.
type Rule struct {
	// ID indexes the rule within its RuleSet.
	ID int
	// Name is a human-readable label ("10.0.1.0/30" for wildcard rules).
	Name string
	// Cover is the set of flow identifiers the rule covers.
	Cover flows.Set
	// Priority orders overlapping rules; higher wins. Within a RuleSet
	// priorities are distinct, making > a total order as the paper
	// requires.
	Priority int
	// Timeout is the rule's expiration duration in model steps (the t_j
	// of §IV). It must be ≥ 1.
	Timeout int
	// Kind selects idle vs hard expiration.
	Kind TimeoutKind
}

// String implements fmt.Stringer.
func (r Rule) String() string {
	return fmt.Sprintf("rule%d(%s prio=%d t=%d %s)", r.ID, r.Name, r.Priority, r.Timeout, r.Kind)
}

// Errors returned by NewSet.
var (
	ErrDuplicatePriority = errors.New("rules: overlapping rules with equal priority")
	ErrBadTimeout        = errors.New("rules: rule timeout must be ≥ 1")
	ErrEmptyCover        = errors.New("rules: rule covers no flows")
)

// Set is an immutable collection of rules with a total priority order — the
// paper's Rules. Rule IDs are indices into the set.
type Set struct {
	rules      []Rule
	byPriority []int // rule IDs sorted by descending priority

	// coverIndex[f] holds the IDs of every rule covering flow f in
	// descending priority order — the precomputed match index. MatchIn,
	// HighestCovering, and Covering probe it instead of scanning the full
	// priority order, turning per-packet matching from O(|Rules|) bitset
	// probes into O(candidates) for the looked-up flow. Flows outside the
	// index range are covered by no rule. Built once in NewSet
	// (O(Σ|cover|)); the Set is immutable afterwards, so the index never
	// goes stale.
	coverIndex [][]int32
}

// NewSet validates and assembles a rule set. Rules are re-assigned IDs
// 0..len-1 in the given order. It enforces the paper's structural
// requirements: every rule covers at least one flow, has a positive
// timeout, and overlapping rules have distinct priorities.
func NewSet(rs []Rule) (*Set, error) {
	out := &Set{rules: make([]Rule, len(rs))}
	copy(out.rules, rs)
	for i := range out.rules {
		out.rules[i].ID = i
		if out.rules[i].Timeout < 1 {
			return nil, fmt.Errorf("%w: %s", ErrBadTimeout, out.rules[i])
		}
		if out.rules[i].Cover.Empty() {
			return nil, fmt.Errorf("%w: %s", ErrEmptyCover, out.rules[i])
		}
		if out.rules[i].Kind == 0 {
			out.rules[i].Kind = IdleTimeout
		}
	}
	for i := range out.rules {
		for j := i + 1; j < len(out.rules); j++ {
			if out.rules[i].Priority == out.rules[j].Priority && out.rules[i].Cover.Overlaps(out.rules[j].Cover) {
				return nil, fmt.Errorf("%w: %s vs %s", ErrDuplicatePriority, out.rules[i], out.rules[j])
			}
		}
	}
	out.byPriority = make([]int, len(out.rules))
	for i := range out.byPriority {
		out.byPriority[i] = i
	}
	sort.SliceStable(out.byPriority, func(a, b int) bool {
		ra, rb := out.rules[out.byPriority[a]], out.rules[out.byPriority[b]]
		if ra.Priority != rb.Priority {
			return ra.Priority > rb.Priority
		}
		return ra.ID < rb.ID
	})
	out.buildCoverIndex()
	return out, nil
}

// buildCoverIndex assembles the per-flow match index. Walking byPriority
// outermost makes every candidate list come out priority-sorted for free.
func (s *Set) buildCoverIndex() {
	nf := 0
	for i := range s.rules {
		s.rules[i].Cover.ForEach(func(f flows.ID) {
			if int(f)+1 > nf {
				nf = int(f) + 1
			}
		})
	}
	s.coverIndex = make([][]int32, nf)
	for _, id := range s.byPriority {
		s.rules[id].Cover.ForEach(func(f flows.ID) {
			s.coverIndex[f] = append(s.coverIndex[f], int32(id))
		})
	}
}

// Len returns the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Rule returns the rule with the given ID. The returned rule's Cover
// shares storage with the set: treat it as read-only (Clone before any
// in-place mutation). The model hot paths depend on this zero-copy access.
func (s *Set) Rule(id int) Rule { return s.rules[id] }

// Rules returns a copy of the rule slice. As with Rule, the Cover sets are
// shared read-only views.
func (s *Set) Rules() []Rule {
	out := make([]Rule, len(s.rules))
	copy(out, s.rules)
	return out
}

// ByPriority returns rule IDs in descending priority order.
func (s *Set) ByPriority() []int {
	out := make([]int, len(s.byPriority))
	copy(out, s.byPriority)
	return out
}

// HigherPriority reports whether rule a has higher priority than rule b
// (the paper's rule_a > rule_b).
func (s *Set) HigherPriority(a, b int) bool {
	return s.rules[a].Priority > s.rules[b].Priority
}

// candidates returns the priority-sorted match-index slice for f (nil when
// no rule covers f, including flows outside the index range).
func (s *Set) candidates(f flows.ID) []int32 {
	if int(f) < 0 || int(f) >= len(s.coverIndex) {
		return nil
	}
	return s.coverIndex[f]
}

// HighestCovering returns the ID of the highest-priority rule covering f,
// which is the rule the controller installs on a table miss for f. The
// boolean is false if no rule covers f.
func (s *Set) HighestCovering(f flows.ID) (int, bool) {
	if c := s.candidates(f); len(c) > 0 {
		return int(c[0]), true
	}
	return 0, false
}

// Covering returns the IDs of every rule covering f, in descending
// priority order.
func (s *Set) Covering(f flows.ID) []int {
	c := s.candidates(f)
	if len(c) == 0 {
		return nil
	}
	out := make([]int, len(c))
	for i, id := range c {
		out[i] = int(id)
	}
	return out
}

// MatchIn returns the ID of the highest-priority rule among cached that
// covers f — the switch's matching behaviour. cached is interpreted as a
// set of rule IDs; the boolean is false on a table miss. It probes only
// the precomputed candidate rules for f (already priority-sorted) against
// the cached predicate; MatchInLinear is the reference implementation it
// is differential-tested against.
func (s *Set) MatchIn(f flows.ID, cached func(ruleID int) bool) (int, bool) {
	for _, id := range s.candidates(f) {
		if cached(int(id)) {
			return int(id), true
		}
	}
	return 0, false
}

// CoveredFlows returns the union of all rules' coverage.
func (s *Set) CoveredFlows() flows.Set {
	var u flows.Set
	for i := range s.rules {
		u.UnionInPlace(s.rules[i].Cover)
	}
	return u
}

// NumCovering returns how many rules cover flow f — the x-axis of the
// paper's Figure 7a for the target flow.
func NumCovering(s *Set, f flows.ID) int {
	return len(s.Covering(f))
}
