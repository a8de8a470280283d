package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flowrecon/internal/detect"
	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
)

// ErrSaturated means both the active-session slots and the admission
// queue are full; the client should back off and retry (HTTP 429 with
// Retry-After).
var ErrSaturated = errors.New("service: saturated: active sessions and admission queue full")

// ErrDraining means the daemon is shutting down and admits no new
// sessions (HTTP 503).
var ErrDraining = errors.New("service: draining: not accepting new sessions")

// Config sizes the manager.
type Config struct {
	// MaxActive bounds concurrently running sessions (≤ 0 → 64).
	MaxActive int
	// MaxQueue bounds sessions waiting for an active slot (≤ 0 → 128;
	// to refuse queueing entirely set MaxQueue negative... use -1).
	MaxQueue int
	// Workers is the scheduler pool size (≤ 0 → 1).
	Workers int
	// Batch is the per-round unit batch (≤ 0 → DefaultBatch).
	Batch int
	// StoreSize / StoreBytes bound the shared model store.
	StoreSize  int
	StoreBytes int64
	// Registry receives service gauges and counters; nil disables.
	Registry *telemetry.Registry
	// Faults is the default chaos profile applied to sessions whose spec
	// carries none (the -fault-* daemon flags).
	Faults faults.Profile
	// DetectAggregate, non-nil, receives every detecting session's trial
	// detectors — the daemon's whole-process defender view.
	DetectAggregate *detect.Detector
}

// Manager admits, queues and runs sessions: bounded active slots, a
// bounded wait queue with backpressure beyond it, the shared model
// store, and the batched scheduler underneath.
type Manager struct {
	cfg   Config
	store *Store
	sched *Scheduler

	mu       sync.Mutex
	cond     *sync.Cond
	active   int
	queued   int
	draining bool
	sessions []*Session // oldest first; finished ones beyond a cap are pruned
	nextID   atomic.Int64

	detMu sync.Mutex

	activeG   *telemetry.Gauge
	queuedG   *telemetry.Gauge
	opened    *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
}

// maxFinishedRetained bounds how many completed sessions the list
// endpoint remembers.
const maxFinishedRetained = 256

// NewManager builds the manager and starts its scheduler pool.
func NewManager(cfg Config) *Manager {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 64
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 128
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	m := &Manager{
		cfg:   cfg,
		store: NewStore(cfg.StoreSize, cfg.StoreBytes, cfg.Registry),
		sched: NewScheduler(cfg.Workers, cfg.Batch),
	}
	m.cond = sync.NewCond(&m.mu)
	if reg := cfg.Registry; reg != nil {
		m.sched.SetTelemetry(reg)
		m.activeG = reg.Gauge("service_sessions_active")
		m.queuedG = reg.Gauge("service_sessions_queued")
		m.opened = reg.Counter("service_sessions_total")
		m.rejected = reg.Counter("service_sessions_rejected_total")
		m.completed = reg.Counter("service_sessions_completed_total")
	}
	return m
}

// Store exposes the shared model store (stats endpoints, tests).
func (m *Manager) Store() *Store { return m.store }

// Open admits a session: it validates the spec, takes (or waits for) an
// active slot, resolves the shared model, and enqueues every trial on
// the scheduler. The returned session streams results via Next; the
// caller must Close it when done. Returns ErrSaturated when the queue is
// full and ErrDraining during shutdown.
func (m *Manager) Open(spec SessionSpec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.admit(); err != nil {
		if m.rejected != nil && errors.Is(err, ErrSaturated) {
			m.rejected.Inc()
		}
		return nil, err
	}
	sess, err := m.start(spec)
	if err != nil {
		m.release()
		return nil, err
	}
	if m.opened != nil {
		m.opened.Inc()
	}
	return sess, nil
}

// admit takes an active slot, waiting in the bounded queue when all
// slots are busy. Already-queued sessions survive a drain (they were
// admitted); new arrivals do not.
func (m *Manager) admit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return ErrDraining
	}
	if m.active >= m.cfg.MaxActive {
		if m.queued >= m.cfg.MaxQueue {
			return ErrSaturated
		}
		m.queued++
		m.publishLocked()
		for m.active >= m.cfg.MaxActive {
			m.cond.Wait()
		}
		m.queued--
	}
	m.active++
	m.publishLocked()
	return nil
}

// release frees an active slot.
func (m *Manager) release() {
	m.mu.Lock()
	m.active--
	m.publishLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (m *Manager) publishLocked() {
	if m.activeG != nil {
		m.activeG.Set(int64(m.active))
		m.queuedG.Set(int64(m.queued))
	}
}

// start resolves the model and schedules the session's trials.
func (m *Manager) start(spec SessionSpec) (*Session, error) {
	key, err := KeyForTarget(spec.Target)
	if err != nil {
		return nil, err
	}
	model, err := m.store.Get(spec.Target)
	if err != nil {
		return nil, err
	}
	roster, err := model.Roster(spec.Target.Probes)
	if err != nil {
		return nil, err
	}
	ropts := experiment.RunnerOptions{Registry: m.cfg.Registry, Faults: m.cfg.Faults}
	if spec.Detect {
		dc := detect.DefaultConfig()
		ropts.Detect = &dc
	}
	runner, err := spec.Target.Runner(model.NC, roster, ropts)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("s%06d", m.nextID.Add(1))
	sess := newSession(id, spec, key, model, runner)

	m.mu.Lock()
	m.sessions = append(m.sessions, sess)
	m.pruneLocked()
	m.mu.Unlock()

	seeds := experiment.TrialSeeds(spec.Target.TrialSeed, spec.Target.Trials)
	for t, seed := range seeds {
		m.sched.Enqueue(sess, t, seed)
	}
	return sess, nil
}

// MergeDetectors folds a trial's detector replicas into the aggregate
// defender view (no-op without one). The aggregate copies what it keeps,
// so the caller may release the replicas once this returns.
func (m *Manager) MergeDetectors(dets []*detect.Detector) {
	agg := m.cfg.DetectAggregate
	if agg == nil || len(dets) == 0 {
		return
	}
	m.detMu.Lock()
	for _, d := range dets {
		agg.Merge(d)
	}
	m.detMu.Unlock()
}

// CloseSession releases the session's active slot. Call exactly once per
// successful Open, after the result stream is consumed (or abandoned).
func (m *Manager) CloseSession(sess *Session) {
	if m.completed != nil {
		m.completed.Inc()
	}
	m.release()
}

// SessionInfo is one row of the session list.
type SessionInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Trials int    `json:"trials"`
	Done   int    `json:"done"`
}

// Sessions lists known sessions oldest-first (completed sessions are
// retained up to a cap).
func (m *Manager) Sessions() []SessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, sess := range m.sessions {
		done, total := sess.Progress()
		out = append(out, SessionInfo{
			ID:     sess.ID,
			Name:   sess.Spec().Name,
			State:  sess.State().String(),
			Trials: total,
			Done:   done,
		})
	}
	return out
}

// pruneLocked drops the oldest finished sessions beyond the retention
// cap. It walks from the oldest only until the excess is dropped, so an
// admission costs O(1) unless running sessions are the oldest; the ones
// it passes move up, in order, to close the gap.
func (m *Manager) pruneLocked() {
	excess := len(m.sessions) - maxFinishedRetained
	i, kept := 0, 0
	for ; excess > 0 && i < len(m.sessions); i++ {
		if sess := m.sessions[i]; sess.State() == StateDone {
			excess--
			continue
		}
		m.sessions[kept] = m.sessions[i]
		kept++
	}
	copy(m.sessions[i-kept:i], m.sessions[:kept])
	clear(m.sessions[:i-kept])
	m.sessions = m.sessions[i-kept:]
}

// Drain stops admitting sessions and waits for every active and queued
// session to finish, or for ctx to expire. The SIGTERM path: mark
// not-ready, Drain, then Shutdown.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.mu.Lock()
		for m.active > 0 || m.queued > 0 {
			m.cond.Wait()
		}
		m.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted with sessions still open: %w", ctx.Err())
	}
}

// Shutdown stops the scheduler pool. Call after Drain.
func (m *Manager) Shutdown() {
	m.sched.Close()
}
