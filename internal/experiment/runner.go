package experiment

import (
	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// TrialRunner is the single-trial execution engine behind RunTrialsOpts,
// exported for callers that own their own scheduling — the flowrecond
// batched probe scheduler interleaves trials from many sessions on one
// worker pool, so it cannot hand whole runs to RunTrialsOpts. A runner
// is immutable after construction and safe for concurrent Run calls:
// every trial draws all of its randomness from the seed it is given, so
// a (runner, trial, seed) triple produces the same result on any
// goroutine in any order.
//
// Runs execute in the forensics-light "probing" mode: per-attacker probe
// flows, classified outcomes, loss masks and verdicts are collected
// (what a session streams back to its client) without the span-tree or
// belief-tracking cost of a full recording.
type TrialRunner struct {
	env *trialEnv
}

// RunnerOptions configures a TrialRunner. The zero value matches
// RunTrials: Poisson traffic, no telemetry, no faults, no detection.
type RunnerOptions struct {
	// Source generates each trial's traffic window (PoissonSource when
	// nil).
	Source TraceSource
	// Registry receives trial/probe counters; nil disables them.
	Registry *telemetry.Registry
	// Faults injects probe-level loss and jitter (see TrialOptions.Faults
	// for the determinism contract).
	Faults faults.Profile
	// Detect attaches a fresh streaming detector per (trial, attacker)
	// replica. Nil disables detection.
	Detect *detect.Config
	// KeepDetectors, with Detect set, retains each trial's merged
	// detectors in the TrialResult so the caller can fold them into an
	// aggregate defender view.
	KeepDetectors bool
}

// TrialResult is one trial's structured outcome.
type TrialResult struct {
	Trial int
	// Truth is whether the target flow actually occurred in the window.
	Truth bool
	// Attackers holds each attacker's probes, outcomes, loss mask and
	// verdict, index-aligned with the roster given to NewTrialRunner.
	Attackers []trialrec.AttackerTrial
	// Detectors are the per-attacker detector replicas (KeepDetectors
	// only), in roster order.
	Detectors []*detect.Detector
}

// NewTrialRunner builds a reusable trial executor for one configuration
// and attacker roster. The roster is shared across every Run call
// (attackers are stateless across trials), so build it once per model.
func NewTrialRunner(nc *NetworkConfig, attackers []core.Attacker, meas Measurement, opts RunnerOptions) *TrialRunner {
	env := newTrialEnv(nc, attackers, meas, opts.Source, opts.Registry, opts.Faults)
	env.probing = true
	env.detect = opts.Detect
	env.detAgg = opts.Detect != nil && opts.KeepDetectors
	return &TrialRunner{env: env}
}

// Names returns the roster's attacker names in order.
func (r *TrialRunner) Names() []string { return r.env.names }

// Horizon returns the trial window length in seconds.
func (r *TrialRunner) Horizon() float64 { return r.env.horizon }

// Run executes one trial from its seed. Safe to call concurrently.
func (r *TrialRunner) Run(trial int, seed int64) (TrialResult, error) {
	out := r.env.runTrial(trial, seed)
	if out.err != nil {
		return TrialResult{}, out.err
	}
	return TrialResult{
		Trial:     trial,
		Truth:     out.truth,
		Attackers: out.atts,
		Detectors: out.dets,
	}, nil
}

// TrialSeeds derives the per-trial seed vector RunTrialsOpts' parallel
// path would use for a run rooted at seed: trial t always runs on the
// t-th draw, whatever order trials execute in.
func TrialSeeds(seed int64, trials int) []int64 {
	rng := stats.NewRNG(seed)
	seeds := make([]int64, trials)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	return seeds
}
