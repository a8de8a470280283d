// Package faults is the deterministic, seed-driven fault-injection layer
// for both network substrates: the discrete-event simulator (netsim, in
// virtual time) and the real TCP OpenFlow stack (openflow, via a
// fault-wrapping net.Conn / net.Listener — see conn.go).
//
// Design rules, mirroring the telemetry package:
//
//   - Disabled means free. A zero Profile (Enabled() == false) and a nil
//     *Stream inject nothing, draw nothing, and allocate nothing, so the
//     instrumented paths stay bit-identical to the fault-free build: not
//     one extra RNG draw is consumed anywhere when faults are off.
//
//   - Everything is seeded. All fault randomness flows through Streams
//     derived from Profile.Seed via a splitmix64 mix of (seed, substream),
//     never from the consumer's own RNG. Chaos runs are therefore pure
//     functions of (trial seeds, fault seed) and replay byte-identically
//     under trialrec, at any experiment parallelism level.
//
//   - Fault decisions are draw-stable. Each knob (loss, jitter, reorder,
//     reset, stall) draws from its own sub-stream of the trial's fault
//     stream, so enabling or tuning one knob never shifts the sequence
//     another knob observes: a 2%-loss run keeps the exact same drop
//     schedule whether or not jitter is also turned on.
package faults

import (
	"fmt"
	"sync"

	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// Profile declares what to inject. The zero value injects nothing. All
// probabilities are per-event (per probe, per hop, per framed message);
// durations are in milliseconds to match the rest of the repository.
type Profile struct {
	// Seed is the root of every fault stream derived from this profile.
	// Two runs with equal profiles inject byte-identical fault sequences.
	Seed int64 `json:"seed"`
	// LossProb drops an event (a probe, a forwarded packet, a framed
	// OpenFlow message) with this probability.
	LossProb float64 `json:"lossProb,omitempty"`
	// JitterMeanMs adds exponentially distributed extra latency with this
	// mean to every delivered event.
	JitterMeanMs float64 `json:"jitterMeanMs,omitempty"`
	// ReorderProb delays an event by an extra ReorderExtraMs with this
	// probability, letting later traffic overtake it.
	ReorderProb    float64 `json:"reorderProb,omitempty"`
	ReorderExtraMs float64 `json:"reorderExtraMs,omitempty"`
	// ResetProb tears down a connection (TCP substrate only) with this
	// probability per written message; the peer sees a hard error and the
	// robust clients reconnect with backoff.
	ResetProb float64 `json:"resetProb,omitempty"`
	// StallProb freezes the controller's decision path for StallMs with
	// this probability, modelling a busy or GC-pausing controller.
	StallProb float64 `json:"stallProb,omitempty"`
	StallMs   float64 `json:"stallMs,omitempty"`
	// SlowFactor multiplies controller decision latency (1 or 0 = off).
	SlowFactor float64 `json:"slowFactor,omitempty"`
}

// Enabled reports whether the profile injects anything at all. The
// instrumented paths branch on this once, at setup time, so a disabled
// profile costs nothing per event.
func (p Profile) Enabled() bool {
	return p.LossProb > 0 || p.JitterMeanMs > 0 || p.ReorderProb > 0 ||
		p.ResetProb > 0 || p.StallProb > 0 || p.SlowFactor > 1
}

// Validate rejects physically meaningless profiles.
func (p Profile) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", name, v)
		}
		return nil
	}
	if err := check("lossProb", p.LossProb); err != nil {
		return err
	}
	if err := check("reorderProb", p.ReorderProb); err != nil {
		return err
	}
	if err := check("resetProb", p.ResetProb); err != nil {
		return err
	}
	if err := check("stallProb", p.StallProb); err != nil {
		return err
	}
	if p.JitterMeanMs < 0 || p.ReorderExtraMs < 0 || p.StallMs < 0 {
		return fmt.Errorf("faults: negative duration in profile")
	}
	if p.SlowFactor < 0 {
		return fmt.Errorf("faults: negative slowFactor %v", p.SlowFactor)
	}
	return nil
}

// splitmix64 is the SplitMix64 finalizer; it decorrelates substream seeds
// so Stream(0), Stream(1), ... are independent even for adjacent inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the substream seed the Stream(sub) call would use.
// Exposed so recordings can note the exact per-trial fault seed.
func (p Profile) SubSeed(sub int64) int64 {
	return int64(splitmix64(uint64(p.Seed)^splitmix64(uint64(sub))) >> 1)
}

// Per-knob sub-stream indices (see Stream): each knob owns an RNG
// derived from (profile seed, substream, knob), which is what makes
// fault schedules draw-stable across knob combinations.
const (
	knobLoss = iota
	knobJitter
	knobReorder
	knobReset
	knobStall
	numKnobs
)

// Stream returns an independent fault stream for substream sub (one per
// trial, per connection, per link — any unit that must be independent of
// scheduling order). A disabled profile returns nil, the no-op stream.
func (p Profile) Stream(sub int64) *Stream {
	if !p.Enabled() {
		return nil
	}
	return p.StreamInto(new(Stream), sub)
}

// StreamInto restarts s in place as the stream Stream(sub) returns: the
// same profile and the same draws from the first one on, with no
// counters and no event log attached, whatever s served before. It
// returns s, or nil — leaving s untouched — for a disabled profile, so a
// caller that owns one Stream value (the experiment trial loop keeps one
// per pooled trial scratch) reseeds it per unit instead of allocating.
// s must not be in use while it restarts.
func (p Profile) StreamInto(s *Stream, sub int64) *Stream {
	if !p.Enabled() {
		return nil
	}
	s.p = p
	base := uint64(p.SubSeed(sub))
	for k := 0; k < numKnobs; k++ {
		s.rng[k].Reseed(int64(splitmix64(base+uint64(k)) >> 1))
	}
	s.ctr = Counters{}
	s.events = nil
	return s
}

// Stream is one independent sequence of fault decisions. All methods are
// safe on a nil receiver (where they inject nothing and consume no
// draws) and safe for concurrent use otherwise.
type Stream struct {
	p   Profile
	mu  sync.Mutex
	rng [numKnobs]stats.RNG // inline, reseeded in place by StreamInto
	ctr Counters            // zero = no counting

	events *telemetry.EventLog // wide event per injected fault (nil = off)
}

// Counters are the fault counters of one injection layer ("netsim",
// "openflow", "controller", "experiment"), labelled by that layer. A
// caller that creates many streams for one layer (the experiment trial
// loop makes one per trial) resolves them once with NewCounters and
// attaches them with SetCounters, skipping the registry lookups. The
// zero value counts nothing.
type Counters struct {
	injected  *telemetry.Counter // faults_injected_total per kind
	lost      *telemetry.Counter
	jittered  *telemetry.Counter
	reordered *telemetry.Counter
	resets    *telemetry.Counter
	stalls    *telemetry.Counter
	layer     string // injection layer, stamped into event Node
}

// NewCounters resolves the fault counters for layer from reg (nil-safe).
func NewCounters(reg *telemetry.Registry, layer string) Counters {
	return Counters{
		injected:  reg.Counter("faults_injected_total", "layer", layer),
		lost:      reg.Counter("faults_loss_total", "layer", layer),
		jittered:  reg.Counter("faults_jitter_total", "layer", layer),
		reordered: reg.Counter("faults_reorder_total", "layer", layer),
		resets:    reg.Counter("faults_reset_total", "layer", layer),
		stalls:    reg.Counter("faults_stall_total", "layer", layer),
		layer:     layer,
	}
}

// SetTelemetry attaches fault counters, labelled by the injection layer
// ("netsim", "openflow", "controller", "experiment"). Safe on nil stream
// and nil registry.
func (s *Stream) SetTelemetry(reg *telemetry.Registry, layer string) {
	if s == nil {
		return
	}
	s.ctr = NewCounters(reg, layer)
}

// SetCounters attaches counters resolved by NewCounters. Safe on a nil
// stream.
func (s *Stream) SetCounters(c Counters) {
	if s == nil {
		return
	}
	s.ctr = c
}

// SetEventLog attaches a wide-event sink emitting one event per injected
// fault ("fault.loss", "fault.reset", ...). It is a separate opt-in from
// SetTelemetry because the experiment trial loop must NOT sink fault
// events directly — it buffers them per trial for in-order assembly so
// parallel runs stay byte-identical. The transport and controller
// layers, whose faults are wall-clock-ordered anyway, attach the sink.
func (s *Stream) SetEventLog(l *telemetry.EventLog) {
	if s == nil {
		return
	}
	s.events = l
}

// event emits one fault-injection wide event.
func (s *Stream) event(kind string) {
	if s.events == nil {
		return
	}
	ev := telemetry.NewWideEvent("fault." + kind)
	ev.Node = s.ctr.layer
	s.events.Emit(ev)
}

// Profile returns the stream's profile (zero for a nil stream).
func (s *Stream) Profile() Profile {
	if s == nil {
		return Profile{}
	}
	return s.p
}

// bernoulli draws one decision from the given knob's sub-stream under
// the stream lock. Knobs at zero skip the draw (and the lock) entirely.
func (s *Stream) bernoulli(knob int, p float64) bool {
	if p <= 0 {
		return false
	}
	s.mu.Lock()
	hit := s.rng[knob].Bernoulli(p)
	s.mu.Unlock()
	return hit
}

// Drop reports whether the next event is lost.
func (s *Stream) Drop() bool {
	if s == nil {
		return false
	}
	hit := s.bernoulli(knobLoss, s.p.LossProb)
	if hit {
		s.ctr.lost.Inc()
		s.ctr.injected.Inc()
		s.event("loss")
	}
	return hit
}

// JitterMs returns the extra latency (exponential, mean JitterMeanMs) to
// add to the next delivered event; 0 when jitter is off.
func (s *Stream) JitterMs() float64 {
	if s == nil || s.p.JitterMeanMs <= 0 {
		return 0
	}
	s.mu.Lock()
	j := s.rng[knobJitter].Exp(1 / s.p.JitterMeanMs)
	s.mu.Unlock()
	if j > 0 {
		s.ctr.jittered.Inc()
		s.ctr.injected.Inc()
		s.event("jitter")
	}
	return j
}

// ReorderMs returns the extra delay applied to an event selected for
// reordering, or 0 when this event keeps its place.
func (s *Stream) ReorderMs() float64 {
	if s == nil {
		return 0
	}
	if !s.bernoulli(knobReorder, s.p.ReorderProb) {
		return 0
	}
	s.ctr.reordered.Inc()
	s.ctr.injected.Inc()
	s.event("reorder")
	return s.p.ReorderExtraMs
}

// Reset reports whether the connection carrying the next message is torn
// down.
func (s *Stream) Reset() bool {
	if s == nil {
		return false
	}
	hit := s.bernoulli(knobReset, s.p.ResetProb)
	if hit {
		s.ctr.resets.Inc()
		s.ctr.injected.Inc()
		s.event("reset")
	}
	return hit
}

// StallMs returns the controller stall to inject before the next
// decision (0 = none).
func (s *Stream) StallMs() float64 {
	if s == nil {
		return 0
	}
	if !s.bernoulli(knobStall, s.p.StallProb) {
		return 0
	}
	s.ctr.stalls.Inc()
	s.ctr.injected.Inc()
	s.event("stall")
	return s.p.StallMs
}

// SlowMs scales a controller decision latency by SlowFactor (identity
// for nil streams and factors ≤ 1... a factor of 1 is "no slowdown").
func (s *Stream) SlowMs(ms float64) float64 {
	if s == nil {
		return ms
	}
	if s.p.SlowFactor > 1 {
		return ms * s.p.SlowFactor
	}
	return ms
}
