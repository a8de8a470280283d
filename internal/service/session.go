package service

import (
	"errors"
	"sync/atomic"

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
// the scheduler's worker pool; an experiment.Frontier hands them to the
// consumer strictly in trial order, so the streamed output is a pure
// function of the spec — byte-identical at any worker count.
type Session struct {
	// ID is the server-assigned identifier. It travels in the response
	// header and the session list, never in the result stream.
	ID   string
	spec SessionSpec
	key  TargetKey

	model  *Model
	runner *experiment.TrialRunner

	fr    *experiment.Frontier
	state atomic.Int32 // SessionState
}

// newSession wires a session to its shared model and trial runner.
func newSession(id string, spec SessionSpec, key TargetKey, model *Model, runner *experiment.TrialRunner) *Session {
	sess := &Session{
		ID:     id,
		spec:   spec,
		key:    key,
		model:  model,
		runner: runner,
		fr:     experiment.NewFrontier(spec.Target.Trials),
	}
	sess.state.Store(int32(StateRunning))
	return sess
}

// Spec returns the session's request.
func (s *Session) Spec() SessionSpec { return s.spec }

// Names returns the attacker roster names.
func (s *Session) Names() []string { return s.runner.Names() }

// Horizon returns the attack window in seconds.
func (s *Session) Horizon() float64 { return s.runner.Horizon() }

// errCanceled aborts a session whose client went away.
var errCanceled = errors.New("service: session canceled by client")

// Cancel aborts the session: pending trials are skipped instead of
// burning scheduler time, and Next returns the cancellation error.
func (s *Session) Cancel() { s.fr.Fail(errCanceled) }

// runUnit executes one trial on the calling scheduler worker and posts
// the result. Completion order is arbitrary; delivery order is not.
func (s *Session) runUnit(trial int, seed int64) {
	if s.fr.Err() != nil {
		return // failed or canceled: nobody will read this trial
	}
	res, err := s.runner.Run(trial, seed)
	s.fr.Post(trial, res, err)
}

// Next blocks until the next trial in order completes and returns it.
// ok is false once every trial has been delivered or the session failed;
// a failure surfaces as the error with ok false.
func (s *Session) Next() (experiment.TrialResult, bool, error) {
	res, ok, err := s.fr.Next()
	if !ok {
		s.state.Store(int32(StateDone))
	}
	return res, ok, err
}

// Ready reports whether Next would return without blocking: the next
// trial has completed, every trial has been delivered, or the session
// failed.
func (s *Session) Ready() bool { return s.fr.Ready() }

// Progress reports delivered and total trial counts.
func (s *Session) Progress() (done, total int) {
	return s.fr.Delivered(), s.spec.Target.Trials
}

// State returns the lifecycle phase.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }
