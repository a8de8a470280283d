package service

import (
	"sync"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/telemetry"
)

// Model is one resident target configuration with everything sessions
// share: the generated NetworkConfig (whose selector holds the evolved
// §IV-B chains — the expensive part) and memoized attacker rosters per
// probe budget. Immutable after construction except for the roster memo,
// which is lock-protected; attackers are stateless across trials, so one
// roster serves every concurrent session.
type Model struct {
	Key TargetKey
	NC  *experiment.NetworkConfig

	mu      sync.Mutex
	rosters map[int][]core.Attacker
}

// Roster returns the standard attacker roster for a probe budget,
// building it once per (model, probes).
func (m *Model) Roster(probes int) ([]core.Attacker, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.rosters[probes]; ok {
		return r, nil
	}
	r, err := experiment.StandardAttackers(m.NC, probes)
	if err != nil {
		return nil, err
	}
	if m.rosters == nil {
		m.rosters = make(map[int][]core.Attacker)
	}
	m.rosters[probes] = r
	return r, nil
}

// MemBytes estimates the model's resident footprint: the selector's two
// chains and evolved distributions. Each entry owns its chains, so
// summing MemBytes over entries counts every chain once; the figure is
// still a budget accounting unit, not exact RSS.
func (m *Model) MemBytes() int64 {
	return m.NC.Selector.MemBytes()
}

// Store is the shared model store: target key → built Model, with
// singleflight build deduplication (N concurrent sessions over one
// config trigger exactly one build), LRU eviction and an optional byte
// budget. It is the only model cache in the process: it caches the whole
// generated configuration including the evolved selector. It also owns
// the build context every one of its builds runs in, whose u-sum memo
// serves the rebuild of a model the store has evicted.
type Store struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	builds   *core.Builds
	entries  map[TargetKey]*storeEntry
	head     *storeEntry // most recently used
	tail     *storeEntry // next to evict
	bytes    int64
	hits     uint64
	misses   uint64
	built    uint64
	evicts   uint64

	hitCtr   *telemetry.Counter
	missCtr  *telemetry.Counter
	buildCtr *telemetry.Counter
	evictCtr *telemetry.Counter
	bytesG   *telemetry.Gauge
	modelsG  *telemetry.Gauge
}

type storeEntry struct {
	key        TargetKey
	prev, next *storeEntry
	resident   bool
	bytes      int64
	once       sync.Once
	m          *Model
	err        error
}

// DefaultStoreSize bounds a store constructed with max ≤ 0.
const DefaultStoreSize = 64

// NewStore returns a store holding at most max models (≤ 0 means
// DefaultStoreSize) within maxBytes (0 = unbounded). Its counters and
// gauges, and its builds' model-layer instruments, report into reg (nil
// for none).
func NewStore(max int, maxBytes int64, reg *telemetry.Registry) *Store {
	if max <= 0 {
		max = DefaultStoreSize
	}
	return &Store{
		max:      max,
		maxBytes: maxBytes,
		builds:   core.NewBuilds(reg, true),
		entries:  make(map[TargetKey]*storeEntry),
		hitCtr:   reg.Counter("service_store_lookups", "result", "hit"),
		missCtr:  reg.Counter("service_store_lookups", "result", "miss"),
		buildCtr: reg.Counter("service_store_builds_total"),
		evictCtr: reg.Counter("service_store_evictions_total"),
		bytesG:   reg.Gauge("service_store_bytes"),
		modelsG:  reg.Gauge("service_store_models"),
	}
}

// StoreStats is a point-in-time snapshot.
type StoreStats struct {
	Models    int
	Bytes     int64
	MaxBytes  int64
	Hits      uint64
	Misses    uint64
	Builds    uint64
	Evictions uint64
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Models:    len(s.entries),
		Bytes:     s.bytes,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Builds:    s.built,
		Evictions: s.evicts,
	}
}

// Get returns the model for the spec's target, building it on first use.
// Concurrent Gets for one key share a single build; every caller gets
// the same *Model (or the build error, which is cached with the entry so
// a poisoned spec does not rebuild per request).
func (s *Store) Get(spec experiment.RecordingSpec) (*Model, error) {
	key, err := KeyForTarget(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &storeEntry{key: key, resident: true}
		s.entries[key] = e
		s.misses++
		s.missCtr.Inc()
	} else {
		s.hits++
		s.hitCtr.Inc()
	}
	s.moveToFrontLocked(e)
	s.evictOverLocked()
	s.publishLocked()
	s.mu.Unlock()

	built := false
	e.once.Do(func() {
		nc, err := spec.BuildConfig(s.builds)
		if err != nil {
			e.err = err
			return
		}
		e.m = &Model{Key: key, NC: nc}
		built = true
	})
	if built {
		s.mu.Lock()
		s.built++
		s.buildCtr.Inc()
		if e.resident {
			e.bytes = e.m.MemBytes()
			s.bytes += e.bytes
			s.evictOverLocked()
		}
		s.publishLocked()
		s.mu.Unlock()
	}
	return e.m, e.err
}

func (s *Store) moveToFrontLocked(e *storeEntry) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// evictOverLocked drops LRU-tail entries until both bounds hold, always
// sparing the MRU head. Sessions already holding an evicted *Model keep
// using it; eviction only stops new sessions from finding it.
func (s *Store) evictOverLocked() {
	for s.tail != nil && s.tail != s.head &&
		(len(s.entries) > s.max || (s.maxBytes > 0 && s.bytes > s.maxBytes)) {
		e := s.tail
		s.tail = e.prev
		if s.tail != nil {
			s.tail.next = nil
		}
		e.prev, e.next = nil, nil
		e.resident = false
		s.bytes -= e.bytes
		delete(s.entries, e.key)
		s.evicts++
		s.evictCtr.Inc()
	}
}

func (s *Store) publishLocked() {
	s.bytesG.Set(s.bytes)
	s.modelsG.Set(int64(len(s.entries)))
}
