package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// Draining reports whether a drain is in progress.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// testParams keeps model builds test-sized (the benchmark scale used
// across the repo: 8 flows, 6 rules, cache 3).
func testParams() experiment.Params {
	p := experiment.SmallParams()
	p.Delta = 0.05
	return p
}

func testSpec(name string, trialSeed int64, trials, probes int) SessionSpec {
	return SessionSpec{
		Name: name,
		Target: experiment.RecordingSpec{
			Params:      testParams(),
			ConfigSeed:  11,
			TrialSeed:   trialSeed,
			Trials:      trials,
			Probes:      probes,
			Measurement: experiment.DefaultMeasurement(),
		},
	}
}

// drainSession consumes a session to completion and returns its trial
// count.
func drainSession(t *testing.T, m *Manager, sess *Session) int {
	t.Helper()
	defer m.CloseSession(sess)
	n := 0
	for {
		_, ok, err := sess.Next()
		if err != nil {
			t.Errorf("session %s: %v", sess.ID, err)
			return n
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestSharedModelStore64Sessions is the PR's headline acceptance
// criterion: 64 concurrent sessions over one target spec trigger exactly
// one model build, with every other lookup a cache hit.
func TestSharedModelStore64Sessions(t *testing.T) {
	m := NewManager(Config{MaxActive: 64, Workers: 4, Batch: 4})
	defer m.Shutdown()
	const sessions = 64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := m.Open(testSpec("shared", int64(100+i), 2, 3))
			if err != nil {
				t.Error(err)
				return
			}
			if got := drainSession(t, m, sess); got != 2 {
				t.Errorf("session %d delivered %d trials, want 2", i, got)
			}
		}(i)
	}
	wg.Wait()
	st := m.Store().Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want exactly 1 for %d same-config sessions", st.Builds, sessions)
	}
	if st.Hits < sessions-1 {
		t.Fatalf("cache hits = %d, want ≥ %d", st.Hits, sessions-1)
	}
	if st.Bytes <= 0 {
		t.Fatalf("store bytes = %d, want accounted model footprint", st.Bytes)
	}
}

// TestSessionResultsIdenticalAcrossWorkers pins the determinism
// contract at the manager level: the same spec yields identical trial
// results whether the scheduler runs 1 worker or 8.
func TestSessionResultsIdenticalAcrossWorkers(t *testing.T) {
	collect := func(workers int) []experiment.TrialResult {
		m := NewManager(Config{MaxActive: 8, Workers: workers, Batch: 2})
		defer m.Shutdown()
		sess, err := m.Open(testSpec("det", 42, 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		defer m.CloseSession(sess)
		var out []experiment.TrialResult
		for {
			res, ok, err := sess.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, res)
		}
	}
	serial := collect(1)
	parallel := collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("trial counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Truth != b.Truth || len(a.Attackers) != len(b.Attackers) {
			t.Fatalf("trial %d diverges across worker counts", i)
		}
		for j := range a.Attackers {
			x, y := a.Attackers[j], b.Attackers[j]
			if x.Verdict != y.Verdict || len(x.Probes) != len(y.Probes) {
				t.Fatalf("trial %d attacker %s diverges", i, x.Name)
			}
			for k := range x.Probes {
				if x.Probes[k] != y.Probes[k] || x.Outcomes[k] != y.Outcomes[k] {
					t.Fatalf("trial %d attacker %s probe %d diverges", i, x.Name, k)
				}
			}
		}
	}
}

// TestAdmissionReject verifies backpressure: with one active slot and no
// queue, a second concurrent session is refused with ErrSaturated, and
// after the first completes a new one is admitted again.
func TestAdmissionReject(t *testing.T) {
	m := NewManager(Config{MaxActive: 1, MaxQueue: -1, Workers: 1})
	defer m.Shutdown()
	first, err := m.Open(testSpec("first", 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(testSpec("second", 2, 1, 2)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	drainSession(t, m, first)
	third, err := m.Open(testSpec("third", 3, 1, 2))
	if err != nil {
		t.Fatalf("slot not released after close: %v", err)
	}
	drainSession(t, m, third)
}

// TestAdmissionQueueWaits verifies the bounded queue: a session beyond
// the active limit waits for a slot instead of failing, and runs once
// the slot frees.
func TestAdmissionQueueWaits(t *testing.T) {
	m := NewManager(Config{MaxActive: 1, MaxQueue: 4, Workers: 1})
	defer m.Shutdown()
	first, err := m.Open(testSpec("hold", 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		sess, err := m.Open(testSpec("waits", 2, 1, 2))
		if err != nil {
			got <- err
			return
		}
		drainSession(t, m, sess)
		got <- nil
	}()
	// The queued session must not be admitted while the slot is held.
	select {
	case err := <-got:
		t.Fatalf("queued session finished while slot held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	drainSession(t, m, first)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued session never ran after slot freed")
	}
}

// TestGracefulDrain verifies the SIGTERM path: draining refuses new
// sessions, lets open ones finish, and Drain returns once the manager is
// idle.
func TestGracefulDrain(t *testing.T) {
	m := NewManager(Config{MaxActive: 4, Workers: 2})
	sess, err := m.Open(testSpec("inflight", 7, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	// Draining must become visible, then refuse new admissions.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Open(testSpec("late", 8, 1, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	if got := drainSession(t, m, sess); got != 4 {
		t.Fatalf("in-flight session delivered %d trials during drain, want 4", got)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	m.Shutdown()
}

// TestDrainTimeout verifies Drain surfaces a deadline instead of hanging
// when a session never completes.
func TestDrainTimeout(t *testing.T) {
	m := NewManager(Config{MaxActive: 1, Workers: 1})
	sess, err := m.Open(testSpec("stuck", 9, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The session's slot stays held (never closed) so the drain must
	// time out.
	if err := m.Drain(ctx); err == nil {
		t.Fatal("drain returned nil with a session still open")
	}
	drainSession(t, m, sess)
	m.Shutdown()
}

// TestChaosSession runs a session under the fault profile and checks the
// loss actually bites while results stay deterministic.
func TestChaosSession(t *testing.T) {
	spec := testSpec("chaos", 5, 6, 4)
	spec.Target.Faults = &faults.Profile{Seed: 3, LossProb: 0.3, JitterMeanMs: 2}
	run := func() (lost int, verdicts []bool) {
		m := NewManager(Config{MaxActive: 2, Workers: 2})
		defer m.Shutdown()
		sess, err := m.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer m.CloseSession(sess)
		for {
			res, ok, err := sess.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return lost, verdicts
			}
			for _, att := range res.Attackers {
				verdicts = append(verdicts, att.Verdict)
				for _, l := range att.Lost {
					if l {
						lost++
					}
				}
			}
		}
	}
	lost1, verdicts1 := run()
	lost2, verdicts2 := run()
	if lost1 == 0 {
		t.Fatal("30% loss profile dropped no probes")
	}
	if lost1 != lost2 {
		t.Fatalf("chaos runs diverge: %d vs %d lost", lost1, lost2)
	}
	for i := range verdicts1 {
		if verdicts1[i] != verdicts2[i] {
			t.Fatal("chaos verdicts not reproducible")
		}
	}
}

// TestNaiveBaselineRuns sanity-checks the benchmark baseline path.
func TestNaiveBaselineRuns(t *testing.T) {
	specs := []SessionSpec{testSpec("n1", 1, 1, 2), testSpec("n2", 2, 1, 2)}
	if err := runSessionsNaive(specs); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerSteadyStateAllocs gates the scheduler's enqueue/take hot
// path: once the per-target group and the ready ring have warmed to
// their working capacity, scheduling allocates nothing. (Name matches
// the make alloc-gate regex.)
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := &Scheduler{groups: make(map[TargetKey]*tgroup), batch: 8}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	sess := &Session{key: TargetKey{1}}
	buf := make([]unit, 0, s.batch)
	cycle := func() {
		for i := 0; i < 32; i++ {
			s.Enqueue(sess, i, int64(i))
		}
		s.mu.Lock()
		for s.readyLenLocked() > 0 {
			g := s.popReadyLocked()
			buf = s.takeLocked(g, buf)
		}
		s.mu.Unlock()
	}
	cycle() // warm group + ring capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state enqueue path allocates %.1f per cycle, want 0", allocs)
	}
}

// TestSessionMatchesRecording ties the daemon to the CLI: both build
// their runner with RecordingSpec.Runner, so a session's per-trial
// probes, outcomes, loss masks and verdicts must equal those in the
// experiment.RecordTo recording of the same spec — fault-free, under
// probe loss and jitter, and with the spec's own fault profile on a
// daemon whose default profile differs (the spec's wins).
func TestSessionMatchesRecording(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   *faults.Profile
		defaults faults.Profile // the manager's Config.Faults
	}{
		{"plain", nil, faults.Profile{}},
		{"faults", &faults.Profile{Seed: 3, LossProb: 0.3, JitterMeanMs: 1}, faults.Profile{}},
		{"faults-over-default", &faults.Profile{Seed: 3, LossProb: 0.3, JitterMeanMs: 1}, faults.Profile{Seed: 9, LossProb: 0.6, JitterMeanMs: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(tc.name, 7, 12, 3)
			spec.Target.Faults = tc.faults
			var buf bytes.Buffer
			if _, _, err := experiment.RecordTo(&buf, spec.Target, experiment.RunnerOptions{}, 1); err != nil {
				t.Fatal(err)
			}
			rec, err := trialrec.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}

			m := NewManager(Config{MaxActive: 1, Workers: 3, Faults: tc.defaults})
			defer m.Shutdown()
			sess, err := m.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer m.CloseSession(sess)
			lost := 0
			for _, want := range rec.Trials {
				res, ok, err := sess.Next()
				if err != nil || !ok {
					t.Fatalf("trial %d: ok %v, err %v", want.Trial, ok, err)
				}
				if res.Trial != want.Trial || res.Truth != want.Truth || len(res.Attackers) != len(want.Attackers) {
					t.Fatalf("trial %d: session (trial %d, truth %v, %d attackers) vs recording (truth %v, %d attackers)",
						want.Trial, res.Trial, res.Truth, len(res.Attackers), want.Truth, len(want.Attackers))
				}
				for i, got := range res.Attackers {
					w := want.Attackers[i]
					if got.Name != w.Name || !slices.Equal(got.Probes, w.Probes) || !slices.Equal(got.Outcomes, w.Outcomes) ||
						!slices.Equal(got.Lost, w.Lost) || got.Verdict != w.Verdict {
						t.Fatalf("trial %d attacker %s: session %+v, recording %+v", want.Trial, w.Name, got, w)
					}
					for _, l := range got.Lost {
						if l {
							lost++
						}
					}
				}
			}
			if _, ok, err := sess.Next(); ok || err != nil {
				t.Fatalf("session outlived the recording: ok %v, err %v", ok, err)
			}
			if tc.faults != nil && lost == 0 {
				t.Fatal("30% loss profile dropped no probes")
			}
		})
	}
}

// TestSessionCancelSkipsTrials: a canceled session reports the
// cancellation from Next, and its pending trials are skipped instead of
// run, so the scheduler drains without executing the rest of the budget.
func TestSessionCancelSkipsTrials(t *testing.T) {
	const trials = 100000
	reg := telemetry.NewRegistry()
	m := NewManager(Config{MaxActive: 1, Workers: 1, Registry: reg})
	defer m.Shutdown()
	sess, err := m.Open(testSpec("cancel", 3, trials, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseSession(sess)
	if _, ok, err := sess.Next(); !ok || err != nil {
		t.Fatalf("first trial: ok %v, err %v", ok, err)
	}
	sess.Cancel()
	if _, ok, err := sess.Next(); ok || !errors.Is(err, errCanceled) {
		t.Fatalf("after Cancel: ok %v, err %v, want the cancellation", ok, err)
	}
	if sess.State() != StateDone {
		t.Fatalf("state %v after the stream ended", sess.State())
	}
	m.sched.Wait()
	if ran := reg.Counter("experiment_trials_total").Value(); ran >= trials/2 {
		t.Fatalf("%d of %d trials ran after the session was canceled", ran, trials)
	}
}

// TestPruneKeepsRunningOldest: once more than maxFinishedRetained
// sessions exist, each admission drops the oldest finished one. A
// session still running is never dropped, even as the oldest, and once it
// finishes it is the next to go.
func TestPruneKeepsRunningOldest(t *testing.T) {
	m := NewManager(Config{MaxActive: 2, Workers: 1})
	defer m.Shutdown()
	hold, err := m.Open(testSpec("hold", 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const finished = maxFinishedRetained + 5
	for i := 0; i < finished; i++ {
		sess, err := m.Open(testSpec(fmt.Sprintf("f%d", i), int64(i), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		drainSession(t, m, sess)
	}
	names := func() []string {
		var out []string
		for _, info := range m.Sessions() {
			out = append(out, info.Name)
		}
		return out
	}
	// The running session, then the newest finished ones in order.
	want := []string{"hold"}
	for i := finished - (maxFinishedRetained - 1); i < finished; i++ {
		want = append(want, fmt.Sprintf("f%d", i))
	}
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("retained %d sessions %v…, want %d %v…", len(got), got[:min(3, len(got))], len(want), want[:3])
	}

	drainSession(t, m, hold)
	last, err := m.Open(testSpec("last", 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	drainSession(t, m, last)
	want = append(want[1:], "last")
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("after the oldest finished: retained %d sessions starting %v, want %d starting %v", len(got), got[:min(3, len(got))], len(want), want[:3])
	}
}
