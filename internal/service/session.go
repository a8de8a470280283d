package service

import (
	"errors"
	"sync"

	"flowrecon/internal/experiment"
)

// SessionState is a session's lifecycle phase.
type SessionState int32

const (
	// StateQueued: admitted but waiting for an active slot.
	StateQueued SessionState = iota
	// StateRunning: trials executing on the scheduler.
	StateRunning
	// StateDone: every trial delivered (or the session failed).
	StateDone
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	default:
		return "done"
	}
}

// Session is one admitted attack session. Trials execute out of order on
// the scheduler's worker pool; a per-session completion frontier hands
// them to the consumer strictly in trial order, so the streamed output
// is a pure function of the spec — byte-identical at any worker count.
type Session struct {
	// ID is the server-assigned identifier. It travels in the response
	// header and the session list, never in the result stream.
	ID   string
	spec SessionSpec
	key  TargetKey

	model  *Model
	runner *experiment.TrialRunner
	names  []string

	mu       sync.Mutex
	cond     *sync.Cond
	outs     []experiment.TrialResult
	done     []bool
	frontier int
	failed   error
	state    SessionState
}

// newSession wires a session to its shared model and trial runner.
func newSession(id string, spec SessionSpec, key TargetKey, model *Model, runner *experiment.TrialRunner) *Session {
	sess := &Session{
		ID:     id,
		spec:   spec,
		key:    key,
		model:  model,
		runner: runner,
		names:  runner.Names(),
		outs:   make([]experiment.TrialResult, spec.Target.Trials),
		done:   make([]bool, spec.Target.Trials),
		state:  StateRunning,
	}
	sess.cond = sync.NewCond(&sess.mu)
	return sess
}

// Spec returns the session's request.
func (s *Session) Spec() SessionSpec { return s.spec }

// Names returns the attacker roster names.
func (s *Session) Names() []string { return s.names }

// Horizon returns the attack window in seconds.
func (s *Session) Horizon() float64 { return s.runner.Horizon() }

// errCanceled aborts a session whose client went away.
var errCanceled = errors.New("service: session canceled by client")

// Cancel aborts the session: pending trials complete as no-ops instead
// of burning scheduler time, and Next returns the cancellation error.
func (s *Session) Cancel() {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = errCanceled
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runUnit executes one trial on the calling scheduler worker and posts
// the result. Completion order is arbitrary; delivery order is not.
func (s *Session) runUnit(trial int, seed int64) {
	s.mu.Lock()
	aborted := s.failed != nil
	s.mu.Unlock()
	if aborted {
		s.mu.Lock()
		s.done[trial] = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	res, err := s.runner.Run(trial, seed)
	s.mu.Lock()
	if err != nil {
		if s.failed == nil {
			s.failed = err
		}
	} else {
		s.outs[trial] = res
	}
	s.done[trial] = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Next blocks until the frontier trial completes and returns it. ok is
// false once every trial has been delivered or the session failed; a
// failure surfaces as the error with ok false.
func (s *Session) Next() (experiment.TrialResult, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.failed != nil {
			s.state = StateDone
			return experiment.TrialResult{}, false, s.failed
		}
		if s.frontier >= len(s.done) {
			s.state = StateDone
			return experiment.TrialResult{}, false, nil
		}
		if s.done[s.frontier] {
			res := s.outs[s.frontier]
			s.outs[s.frontier] = experiment.TrialResult{} // release buffers early
			s.frontier++
			return res, true, nil
		}
		s.cond.Wait()
	}
}

// Ready reports whether Next would return without blocking: the frontier
// trial has completed, every trial has been delivered, or the session
// failed.
func (s *Session) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed != nil || s.frontier >= len(s.done) || s.done[s.frontier]
}

// Progress reports delivered and total trial counts.
func (s *Session) Progress() (done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frontier, len(s.done)
}

// State returns the lifecycle phase.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}
