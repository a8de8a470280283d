// Package flowtable implements the SDN switch's rule cache, in two forms:
//
//   - Table: a continuous-time flow table used by the switch simulator and
//     the OpenFlow switch agent. It implements the OpenFlow behaviours the
//     attack depends on — highest-priority match, idle and hard timeouts,
//     and eviction of the entry with the smallest remaining lifetime when
//     the table is full (the Open vSwitch policy cited in the paper).
//
//   - StepTable: a discrete-time table whose step semantics are exactly the
//     transition relation of the paper's basic Markov model (§IV-A). It is
//     used to validate the models against an executable reference.
package flowtable

import (
	"fmt"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// Entry is one cached rule in a continuous-time table.
type Entry struct {
	RuleID      int
	InstalledAt float64 // seconds
	LastMatch   float64 // seconds; equals InstalledAt until first match
}

// EvictionReason says why a rule left the table.
type EvictionReason int

// Reasons a rule leaves the table.
const (
	ReasonExpired EvictionReason = iota + 1
	ReasonEvicted
)

// Stats counts table activity since construction, Reset or CopyCacheFrom.
type Stats struct {
	Lookups     int64
	Hits        int64
	Misses      int64
	Installs    int64
	Evictions   int64
	Expirations int64
	// MatchesByRule[j] counts hits attributed to rule j.
	MatchesByRule []int64
}

// slot is the in-place storage of one rule's cache state. Rule IDs are
// dense indices into the rule set, so slots live in a flat slice — no
// per-entry heap allocation, no map hashing on the hot path, and Install
// after eviction reuses the victim's storage (the entry "pool" is the
// slice itself).
type slot struct {
	Entry
	// expireAt is the absolute expiry time implied by the current timers,
	// kept materialized so Lookup can detect refreshes that do not move
	// the expiry (hard timeouts, repeated matches at one instant) without
	// touching the heap.
	expireAt float64
	// stamp versions the slot's timers. Every heap node records the stamp
	// it was pushed under; a node whose stamp no longer matches is stale
	// (the idle timer was refreshed since) and is discarded lazily when it
	// surfaces at the heap top.
	stamp uint32
	// present marks the slot as cached.
	present bool
}

// expNode is one entry in the expiry-ordered index: the absolute expiry
// time a rule had when the node was pushed, plus the slot stamp that
// validates it.
type expNode struct {
	at    float64
	id    int32
	stamp uint32
}

// Table is a continuous-time flow table over a rule set. The zero value is
// not usable until Reset; construct with New.
//
// The table keeps an expiry-ordered lazy min-heap over its entries, so
// Lookup/Install/Remove pay O(log n) for expiry processing instead of
// rescanning every entry, and expirations fire in deterministic
// (expiry time, rule ID) order — never map-iteration order — which keeps
// OnRemove callbacks, event logs, and span forests reproducible.
type Table struct {
	rules    *rules.Set
	capacity int
	stepSec  float64 // seconds per model step (Δ); rule timeouts are in steps

	slots   []slot    // indexed by rule ID; present marks cached entries
	n       int       // number of cached entries
	heap    []expNode // lazy min-heap ordered by (at, id)
	timeout []float64 // per-rule timeout duration in seconds (Timeout·Δ)
	hard    []bool    // per-rule hard-timeout flag

	// cachedFn is the Lookup predicate over slots, built once so the hot
	// path does not allocate a closure per call.
	cachedFn func(ruleID int) bool

	stats Stats
	tm    Metrics // resolved telemetry instruments (zero = disabled)

	// OnRemove, if non-nil, is called whenever a rule leaves the table.
	OnRemove func(ruleID int, reason EvictionReason, now float64)
}

// New returns an empty table with the given capacity over rs. stepSec is
// the duration Δ of one model step in seconds; rule timeouts (expressed in
// steps) are scaled by it.
func New(rs *rules.Set, capacity int, stepSec float64) (*Table, error) {
	t := new(Table)
	if err := t.Reset(rs, capacity, stepSec); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset empties t and re-targets it at rs, capacity and stepSec, leaving
// it in exactly the state New would return: no entries, zeroed stats,
// telemetry detached and no OnRemove callback. It reuses t's slot, heap,
// timeout and stats storage, so a caller that runs one short-lived table
// after another (the experiment trial loop) allocates nothing once that
// storage has grown to the largest rule set. The zero Table may be Reset.
func (t *Table) Reset(rs *rules.Set, capacity int, stepSec float64) error {
	if capacity < 1 {
		return fmt.Errorf("flowtable: capacity %d < 1", capacity)
	}
	if stepSec <= 0 {
		return fmt.Errorf("flowtable: step duration %v ≤ 0", stepSec)
	}
	n := rs.Len()
	t.rules = rs
	t.capacity = capacity
	t.stepSec = stepSec
	t.slots = resize(t.slots, n)
	clear(t.slots)
	t.n = 0
	if cap(t.heap) < capacity {
		t.heap = make([]expNode, 0, capacity)
	}
	t.heap = t.heap[:0]
	t.timeout = resize(t.timeout, n)
	t.hard = resize(t.hard, n)
	for id := 0; id < n; id++ {
		r := rs.Rule(id)
		t.timeout[id] = float64(r.Timeout) * stepSec
		t.hard[id] = r.Kind == rules.HardTimeout
	}
	t.resetStats()
	t.initCachedFn()
	t.tm = Metrics{}
	t.OnRemove = nil
	return nil
}

// CopyCacheFrom sets t's cache state to src's: the rule set, capacity and
// step, every entry with its timers and stamps, and the lazy expiry index
// node for node, stale nodes included — so every later lookup, install,
// expiry and eviction on t happens exactly as it would on src. It is how
// one replayed traffic window is handed to several attackers, each of
// which perturbs its own copy. t keeps its own telemetry instruments,
// which see its new occupancy, and its OnRemove callback, and its stats
// restart from zero; src's are not copied. It reuses t's storage, so a
// warm t copies without allocating.
func (t *Table) CopyCacheFrom(src *Table) {
	t.rules = src.rules
	t.capacity = src.capacity
	t.stepSec = src.stepSec
	t.slots = append(t.slots[:0], src.slots...)
	t.n = src.n
	t.heap = append(t.heap[:0], src.heap...)
	t.timeout = append(t.timeout[:0], src.timeout...)
	t.hard = append(t.hard[:0], src.hard...)
	t.resetStats()
	t.initCachedFn()
	t.tm.occupancy.Set(int64(t.n))
}

// resetStats zeroes the activity counters, keeping MatchesByRule's
// storage when it is large enough.
func (t *Table) resetStats() {
	byRule := resize(t.stats.MatchesByRule, len(t.slots))
	clear(byRule)
	t.stats = Stats{MatchesByRule: byRule}
}

// initCachedFn builds the Lookup predicate over slots once per table, so
// the hot path does not allocate a closure per call.
func (t *Table) initCachedFn() {
	if t.cachedFn == nil {
		t.cachedFn = func(ruleID int) bool { return t.slots[ruleID].present }
	}
}

// resize returns s with length n, reusing its storage when it has room.
// It does not clear the elements; callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats {
	out := t.stats
	out.MatchesByRule = make([]int64, len(t.stats.MatchesByRule))
	copy(out.MatchesByRule, t.stats.MatchesByRule)
	return out
}

// Capacity returns the table's capacity.
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of cached rules (after expiring stale entries as
// of time now).
func (t *Table) Len(now float64) int {
	t.expire(now)
	return t.n
}

// Occupancy returns the number of cached rules as of the table's last
// mutation, without processing expiries or touching telemetry. The fleet
// simulator polls it when batching occupancy per shard: with thousands
// of tables ticking in one drain, per-table gauge stores are pure atomic
// contention, so each shard sums Occupancy over its tables and publishes
// one gauge per shard instead.
func (t *Table) Occupancy() int { return t.n }

// Contains reports whether ruleID is cached as of now.
func (t *Table) Contains(ruleID int, now float64) bool {
	t.expire(now)
	return t.slots[ruleID].present
}

// Cached returns the IDs of cached rules as of now, in ascending order.
func (t *Table) Cached(now float64) []int {
	t.expire(now)
	out := make([]int, 0, t.n)
	for id := range t.slots {
		if t.slots[id].present {
			out = append(out, id)
		}
	}
	return out
}

// Remaining returns the remaining lifetime of ruleID at time now, or
// (0, false) if it is not cached.
func (t *Table) Remaining(ruleID int, now float64) (float64, bool) {
	t.expire(now)
	s := &t.slots[ruleID]
	if !s.present {
		return 0, false
	}
	return s.expireAt - now, true
}

// --- expiry-ordered index ---

// heapLess orders nodes by (expiry time, rule ID): the deterministic
// expiry and eviction order.
func heapLess(a, b expNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// pushNode inserts a node into the heap.
func (t *Table) pushNode(n expNode) {
	t.heap = append(t.heap, n)
	i := len(t.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(t.heap[i], t.heap[parent]) {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

// popNode removes the heap minimum.
func (t *Table) popNode() {
	last := len(t.heap) - 1
	t.heap[0] = t.heap[last]
	t.heap = t.heap[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		min := l
		if r := l + 1; r < last && heapLess(t.heap[r], t.heap[l]) {
			min = r
		}
		if !heapLess(t.heap[min], t.heap[i]) {
			break
		}
		t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
		i = min
	}
}

// minLive discards stale heap nodes until the top is a live entry's
// current expiry, returning false when the table is empty.
func (t *Table) minLive() (expNode, bool) {
	for len(t.heap) > 0 {
		top := t.heap[0]
		s := &t.slots[top.id]
		if !s.present || s.stamp != top.stamp {
			t.popNode() // stale: timer refreshed or entry removed since push
			continue
		}
		return top, true
	}
	return expNode{}, false
}

// enqueue versions the slot's timers and pushes the matching heap node.
// Invariant: every present slot has exactly one live heap node (stamp
// match); all older nodes are stale and discarded lazily.
func (t *Table) enqueue(id int, s *slot, at float64) {
	s.expireAt = at
	s.stamp++
	t.pushNode(expNode{at: at, id: int32(id), stamp: s.stamp})
}

// refresh records a timer change on an already-present slot. When the
// expiry does not move (repeated matches at one instant), the live node is
// already correct and the heap is untouched.
func (t *Table) refresh(id int, s *slot, at float64) {
	if at == s.expireAt {
		return
	}
	t.enqueue(id, s, at)
}

// expire removes every entry whose lifetime ended at or before now, in
// deterministic (expiry time, rule ID) order.
func (t *Table) expire(now float64) {
	removed := false
	for {
		top, ok := t.minLive()
		if !ok || top.at > now {
			break
		}
		t.popNode()
		t.slots[top.id].present = false
		t.n--
		removed = true
		t.stats.Expirations++
		t.tm.expirations.Inc()
		if t.OnRemove != nil {
			t.OnRemove(int(top.id), ReasonExpired, now)
		}
	}
	if removed {
		t.tm.occupancy.Set(int64(t.n))
	}
}

// Lookup matches flow f against the table at time now. On a hit it returns
// the matched rule ID and refreshes the rule's idle timer, mirroring the
// switch's behaviour. On a miss it returns ok=false; the caller (switch)
// then consults the controller and calls Install.
func (t *Table) Lookup(f flows.ID, now float64) (ruleID int, ok bool) {
	t.expire(now)
	t.stats.Lookups++
	t.tm.lookups.Inc()
	id, ok := t.rules.MatchIn(f, t.cachedFn)
	if !ok {
		t.stats.Misses++
		t.tm.misses.Inc()
		return 0, false
	}
	t.stats.Hits++
	t.tm.hits.Inc()
	t.stats.MatchesByRule[id]++
	s := &t.slots[id]
	s.LastMatch = now
	if !t.hard[id] {
		// An idle-timeout match restarts the countdown; hard timeouts are
		// pinned to the install time and need no index update.
		t.refresh(id, s, now+t.timeout[id])
	}
	return id, true
}

// Install caches ruleID at time now. If the table is full, the entry with
// the smallest remaining lifetime is evicted first (shortest-time-remaining
// policy, ties broken towards the smaller rule ID). Installing an
// already-cached rule refreshes its timers.
func (t *Table) Install(ruleID int, now float64) {
	t.expire(now)
	s := &t.slots[ruleID]
	if s.present {
		s.InstalledAt = now
		s.LastMatch = now
		t.refresh(ruleID, s, now+t.timeout[ruleID])
		return
	}
	if t.n >= t.capacity {
		// Evict the entry with the smallest remaining lifetime. Remaining
		// lifetime and absolute expiry order identically at fixed now, so
		// the victim is exactly the live heap minimum — same (time, rule
		// ID) order the deterministic expiry uses.
		victim, ok := t.minLive()
		if ok {
			t.popNode()
			t.slots[victim.id].present = false
			t.n--
			t.stats.Evictions++
			t.tm.evictions.Inc()
			if t.OnRemove != nil {
				t.OnRemove(int(victim.id), ReasonEvicted, now)
			}
		}
	}
	t.stats.Installs++
	s.Entry = Entry{RuleID: ruleID, InstalledAt: now, LastMatch: now}
	s.present = true
	t.n++
	t.enqueue(ruleID, s, now+t.timeout[ruleID])
	t.tm.installs.Inc()
	t.tm.occupancy.Set(int64(t.n))
}

// Remove deletes ruleID from the table if present (a controller-initiated
// flow removal). It reports whether the rule was cached.
func (t *Table) Remove(ruleID int, now float64) bool {
	t.expire(now)
	s := &t.slots[ruleID]
	if !s.present {
		return false
	}
	s.present = false // the queued heap node goes stale and is dropped lazily
	t.n--
	t.tm.occupancy.Set(int64(t.n))
	return true
}
