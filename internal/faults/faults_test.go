package faults

import (
	"testing"

	"flowrecon/internal/telemetry"
)

func TestZeroProfileDisabled(t *testing.T) {
	var p Profile
	if p.Enabled() {
		t.Fatal("zero profile must be disabled")
	}
	if s := p.Stream(0); s != nil {
		t.Fatal("disabled profile must return a nil stream")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("zero profile must validate: %v", err)
	}
}

func TestNilStreamIsNoOp(t *testing.T) {
	var s *Stream
	s.SetTelemetry(nil, "test") // must not panic
	if s.Drop() || s.Reset() {
		t.Fatal("nil stream injected a drop/reset")
	}
	if s.JitterMs() != 0 || s.ReorderMs() != 0 || s.StallMs() != 0 {
		t.Fatal("nil stream injected latency")
	}
	if got := s.SlowMs(3.5); got != 3.5 {
		t.Fatalf("nil stream scaled latency: %v", got)
	}
	if s.Profile().Enabled() {
		t.Fatal("nil stream profile must be disabled")
	}
}

func TestValidate(t *testing.T) {
	bad := []Profile{
		{LossProb: -0.1},
		{LossProb: 1.5},
		{ReorderProb: 2},
		{ResetProb: -1},
		{StallProb: 7},
		{JitterMeanMs: -2},
		{ReorderExtraMs: -1},
		{StallMs: -1},
		{SlowFactor: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %+v must not validate", p)
		}
	}
	good := Profile{Seed: 9, LossProb: 0.02, JitterMeanMs: 1, ReorderProb: 0.01,
		ReorderExtraMs: 2, ResetProb: 0.001, StallProb: 0.05, StallMs: 10, SlowFactor: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	if !good.Enabled() {
		t.Fatal("good profile must be enabled")
	}
}

// TestStreamDeterminism: equal (profile, substream) pairs produce
// byte-identical fault schedules; different substreams diverge.
func TestStreamDeterminism(t *testing.T) {
	p := Profile{Seed: 42, LossProb: 0.3, JitterMeanMs: 1.5, ReorderProb: 0.2,
		ReorderExtraMs: 2, ResetProb: 0.1, StallProb: 0.25, StallMs: 4}
	type draw struct {
		drop, reset bool
		jit, reo    float64
		stall       float64
	}
	run := func(sub int64) []draw {
		s := p.Stream(sub)
		out := make([]draw, 200)
		for i := range out {
			out[i] = draw{s.Drop(), s.Reset(), s.JitterMs(), s.ReorderMs(), s.StallMs()}
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged between identical streams: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("substreams 7 and 8 produced identical schedules")
	}
}

// TestStreamIntoMatchesStream: a stream restarted in place draws the
// same Drop/JitterMs/ReorderMs sequence as a fresh Stream(sub), whatever
// profile and substream it served before, and keeps none of its old
// counters or event log.
func TestStreamIntoMatchesStream(t *testing.T) {
	profiles := []Profile{
		{Seed: 42, LossProb: 0.3, JitterMeanMs: 1.5, ReorderProb: 0.2, ReorderExtraMs: 2},
		{Seed: 3, LossProb: 0.05, JitterMeanMs: 0.3},
		{Seed: 9, ReorderProb: 0.5, ReorderExtraMs: 7},
	}
	type draw struct {
		drop     bool
		jit, reo float64
	}
	draws := func(s *Stream) []draw {
		out := make([]draw, 300)
		for i := range out {
			out[i] = draw{s.Drop(), s.JitterMs(), s.ReorderMs()}
		}
		return out
	}
	const injected = `faults_injected_total{layer="prev"}`
	var s Stream
	for _, prev := range profiles {
		for _, p := range profiles {
			reg := telemetry.NewRegistry()
			events := telemetry.NewEventLog(0)
			prev.StreamInto(&s, 5).SetTelemetry(reg, "prev")
			s.SetEventLog(events)
			draws(&s) // advance every knob's stream under the old profile
			counted, emitted := reg.Snapshot().Counters[injected], events.Len()
			const sub = 11
			if got := p.StreamInto(&s, sub); got != &s {
				t.Fatalf("StreamInto returned %p, want the stream it restarted", got)
			}
			want, got := draws(p.Stream(sub)), draws(&s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after %+v: restarted %+v draw %d = %+v, fresh stream gives %+v", prev, p, i, got[i], want[i])
				}
			}
			if s.Profile() != p {
				t.Fatalf("restarted stream serves %+v, want %+v", s.Profile(), p)
			}
			if n := reg.Snapshot().Counters[injected]; n != counted {
				t.Fatalf("restarted stream still counts into the old registry: %d -> %d", counted, n)
			}
			if n := events.Len(); n != emitted {
				t.Fatalf("restarted stream still emits into the old event log: %d -> %d", emitted, n)
			}
		}
	}
	if got := (Profile{}).StreamInto(&s, 1); got != nil {
		t.Fatalf("disabled profile restarted a stream: %p", got)
	}
}

// TestSubSeedDecorrelated: adjacent substreams get well-mixed seeds.
func TestSubSeedDecorrelated(t *testing.T) {
	p := Profile{Seed: 1, LossProb: 0.5}
	seen := map[int64]bool{}
	for sub := int64(0); sub < 64; sub++ {
		s := p.SubSeed(sub)
		if s < 0 {
			t.Fatalf("SubSeed(%d) = %d is negative", sub, s)
		}
		if seen[s] {
			t.Fatalf("SubSeed collision at sub=%d", sub)
		}
		seen[s] = true
	}
}

// TestDrawStability: enabling an unrelated knob must not shift the draw
// sequence of an enabled one (zero-probability knobs consume no draws).
func TestDrawStability(t *testing.T) {
	lossOnly := Profile{Seed: 5, LossProb: 0.3}
	withJitter := Profile{Seed: 5, LossProb: 0.3, JitterMeanMs: 2}
	a, b := lossOnly.Stream(0), withJitter.Stream(0)
	for i := 0; i < 500; i++ {
		da := a.Drop()
		db := b.Drop()
		b.JitterMs() // jitter draws from its own sub-stream...
		if da != db {
			t.Fatalf("drop %d diverged once jitter was enabled", i)
		}
		a.JitterMs() // ...and a zero-mean jitter consumes no draw
	}
}

func TestRates(t *testing.T) {
	p := Profile{Seed: 11, LossProb: 0.2, JitterMeanMs: 1.0}
	s := p.Stream(3)
	const n = 20000
	drops := 0
	var jitterSum float64
	for i := 0; i < n; i++ {
		if s.Drop() {
			drops++
		}
		jitterSum += s.JitterMs()
	}
	rate := float64(drops) / n
	if rate < 0.18 || rate > 0.22 {
		t.Fatalf("drop rate %.4f far from 0.2", rate)
	}
	mean := jitterSum / n
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("jitter mean %.4f far from 1.0", mean)
	}
}

func TestSlowAndStall(t *testing.T) {
	p := Profile{Seed: 2, SlowFactor: 3, StallProb: 1, StallMs: 7}
	s := p.Stream(0)
	if got := s.SlowMs(2); got != 6 {
		t.Fatalf("SlowMs(2) = %v, want 6", got)
	}
	if got := s.StallMs(); got != 7 {
		t.Fatalf("StallMs = %v, want 7 at probability 1", got)
	}
	// SlowFactor 1 is identity.
	one := Profile{Seed: 2, SlowFactor: 1}
	if one.Enabled() {
		t.Fatal("SlowFactor 1 alone must not enable the profile")
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := Profile{Seed: 3, LossProb: 1}
	s := p.Stream(0)
	s.SetTelemetry(reg, "test")
	for i := 0; i < 5; i++ {
		if !s.Drop() {
			t.Fatal("LossProb 1 must always drop")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`faults_loss_total{layer="test"}`]; got != 5 {
		t.Fatalf("loss counter = %d, want 5", got)
	}
	if got := snap.Counters[`faults_injected_total{layer="test"}`]; got != 5 {
		t.Fatalf("injected counter = %d, want 5", got)
	}
}

func TestStreamConcurrency(t *testing.T) {
	p := Profile{Seed: 6, LossProb: 0.5, JitterMeanMs: 0.5, ResetProb: 0.1}
	s := p.Stream(0)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				s.Drop()
				s.JitterMs()
				s.Reset()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
