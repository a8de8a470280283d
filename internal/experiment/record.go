package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"flowrecon/internal/core"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/trialrec"
)

// RestrictedAttackerName is the reported name of the §VI-B attacker that
// may not probe the target flow itself.
const RestrictedAttackerName = "model(f≠target)"

// RecordingSpec pins everything needed to regenerate a recorded run
// bit-for-bit: the generation parameters, the two root seeds, and the
// attack shape. It travels in the recording header (as trialrec's opaque
// spec blob), so a recording is self-describing — Replay needs nothing
// but the file.
type RecordingSpec struct {
	// Params are the configuration-generation parameters.
	Params Params `json:"params"`
	// ConfigSeed seeds the network-configuration sampler.
	ConfigSeed int64 `json:"configSeed"`
	// TrialSeed seeds the trial loop (traffic, probes, random verdicts).
	TrialSeed int64 `json:"trialSeed"`
	// Trials is the number of attack trials.
	Trials int `json:"trials"`
	// Probes is the model attacker's sequence length m.
	Probes int `json:"probes"`
	// Measurement is the timing classifier.
	Measurement Measurement `json:"measurement"`
	// Faults, when non-nil, is the fault-injection profile of the run
	// (probe loss and delay jitter; see RunnerOptions.Faults). It is part
	// of the spec — and therefore the config hash — so a chaos run
	// replays with its faults, fault for fault. Nil (omitted from the
	// JSON) keeps fault-free specs, hashes and recordings byte-identical
	// to recordings made before fault injection existed.
	Faults *faults.Profile `json:"faults,omitempty"`
	// Trace, when non-nil, names the traffic source: a heavy-tailed or
	// modulated generator, or an ingested capture pinned by SHA-256. It
	// follows the Faults convention — nil is omitted from the JSON, so
	// Poisson specs, hashes and recordings stay byte-identical to those
	// made before trace sources existed.
	Trace *TraceSourceSpec `json:"traceSource,omitempty"`
}

// Validate checks the spec.
func (s RecordingSpec) Validate() error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.Trials < 1 || s.Probes < 1 {
		return fmt.Errorf("experiment: recording needs ≥ 1 trial and ≥ 1 probe (got %d, %d)", s.Trials, s.Probes)
	}
	if s.Probes > MaxSequenceProbes {
		return fmt.Errorf("experiment: %d probes exceed %d", s.Probes, MaxSequenceProbes)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := s.Trace.Validate(); err != nil {
		return err
	}
	return nil
}

// MaxSequenceProbes bounds a spec's probe sequence length m. The
// sequence search sizes its tables at 2^m leaves for every candidate
// sequence, and the paper's attacker sends one or two probes.
const MaxSequenceProbes = 8

// maxConfigAttempts bounds sampleConfig's resampling loop (GenerateConfig
// fails when no flow qualifies as a target).
const maxConfigAttempts = 64

// sampleConfig draws configurations from rng until one has a qualifying
// target, at most maxConfigAttempts times. Every attempt draws from rng,
// so the (attempt count, configuration) pair and rng's state afterwards
// are pure functions of rng's state before; callers that fork rng later
// rely on that. Models are built in b (nil for none).
func sampleConfig(p Params, fitted []float64, rng *stats.RNG, b *core.Builds) (*NetworkConfig, error) {
	var lastErr error
	for attempt := 0; attempt < maxConfigAttempts; attempt++ {
		nc, err := GenerateConfig(p, fitted, rng, b)
		if err == nil {
			return nc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("experiment: no viable configuration after %d attempts: %w", maxConfigAttempts, lastErr)
}

// BuildConfig regenerates the network configuration from the spec. The
// sampler draws from a single stream seeded with ConfigSeed and resamples
// on target-selection failure, so the (attempt count, configuration) pair
// is a pure function of the spec. Models are built in b (nil for none),
// which changes no result.
func (s RecordingSpec) BuildConfig(b *core.Builds) (*NetworkConfig, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// A rate-fitting trace source replaces the sampled uniform rates with
	// the capture's empirical per-class rates; the file is pinned by
	// SHA-256, so the configuration stays a pure function of the spec.
	var fitted []float64
	if s.Trace != nil && s.Trace.FitRates {
		res, err := s.Trace.Load()
		if err != nil {
			return nil, err
		}
		fitted = res.Rates
	}
	return sampleConfig(s.Params, fitted, stats.NewRNG(s.ConfigSeed), b)
}

// Runner builds the spec's trial runner over nc, the configuration
// BuildConfig regenerated, and attackers. It is the one place a spec
// becomes a runner: the trials replay the spec's traffic source
// (opts.Source is replaced), a spec's own fault profile replaces the
// default profile in opts.Faults, and a zero Measurement means
// DefaultMeasurement. opts carries everything else (telemetry,
// detection, recording, events).
func (s RecordingSpec) Runner(nc *NetworkConfig, attackers []core.Attacker, opts RunnerOptions) (*TrialRunner, error) {
	source, err := s.Trace.Source()
	if err != nil {
		return nil, err
	}
	opts.Source = source
	if s.Faults != nil {
		opts.Faults = *s.Faults
	}
	meas := s.Measurement
	if meas == (Measurement{}) {
		meas = DefaultMeasurement()
	}
	return NewTrialRunner(nc, attackers, meas, opts), nil
}

// Header returns the header of a recording of the spec run by r: the
// spec itself, so the recording replays from the file alone, its trial
// seed and count, and r's roster.
func (s RecordingSpec) Header(r *TrialRunner) (trialrec.Header, error) {
	specJSON, err := json.Marshal(s)
	if err != nil {
		return trialrec.Header{}, err
	}
	return trialrec.Header{
		Spec:      specJSON,
		Seed:      s.TrialSeed,
		Trials:    s.Trials,
		Attackers: r.Names(),
	}, nil
}

// StandardAttackers builds the canonical roster the CLI and the figures
// evaluate: the naive target-prober, the model attacker with m probes,
// the restricted model attacker (probes ≠ target, §VI-B), and the
// probeless random guesser. Names are distinct so recordings index
// cleanly by attacker.
func StandardAttackers(nc *NetworkConfig, probes int) ([]core.Attacker, error) {
	model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), probes)
	if err != nil {
		return nil, err
	}
	restricted, err := core.NewModelAttacker(nc.Selector, nc.Selector.FlowsExcept(nc.Target), 1)
	if err != nil {
		return nil, err
	}
	return []core.Attacker{
		&core.NaiveAttacker{TargetFlow: nc.Target},
		model,
		restricted.Rename(RestrictedAttackerName),
		&core.RandomAttacker{PPresent: 1 - nc.PAbsent()},
	}, nil
}

// RecordTo executes the spec with the standard roster and streams the
// recording to w (which is not closed). opts are the runner options
// (Runner overrides their source and, for a spec with faults, their
// fault profile; Record is implied), and opts.Registry also receives the
// model build's telemetry. Trials run on parallelism workers; recordings
// are assembled in strict trial order, so the output bytes are identical
// at every level, which the golden tests pin. It returns the
// per-attacker results alongside the regenerated configuration.
func RecordTo(w io.Writer, spec RecordingSpec, opts RunnerOptions, parallelism int) ([]AttackerResult, *NetworkConfig, error) {
	nc, err := spec.BuildConfig(core.NewBuilds(opts.Registry, false))
	if err != nil {
		return nil, nil, err
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		return nil, nil, err
	}
	opts.Record = true
	runner, err := spec.Runner(nc, attackers, opts)
	if err != nil {
		return nil, nil, err
	}
	hdr, err := spec.Header(runner)
	if err != nil {
		return nil, nil, err
	}
	rec, err := trialrec.NewRecorder(struct{ io.Writer }{w}, hdr)
	if err != nil {
		return nil, nil, err
	}
	results, err := runner.RunTrials(spec.Trials, spec.TrialSeed, parallelism, RecordTrials(rec))
	if err != nil {
		rec.Close()
		return nil, nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, nil, err
	}
	return results, nc, nil
}

// SpecFromRecording extracts the RecordingSpec a recording was produced
// from.
func SpecFromRecording(rec *trialrec.Recording) (RecordingSpec, error) {
	var spec RecordingSpec
	if len(rec.Header.Spec) == 0 {
		return spec, fmt.Errorf("experiment: recording carries no spec; cannot replay")
	}
	if err := json.Unmarshal(rec.Header.Spec, &spec); err != nil {
		return spec, fmt.Errorf("experiment: bad spec: %w", err)
	}
	return spec, nil
}

// Replay re-executes a recording's spec from its seeds and returns the
// freshly generated recording plus the per-attacker results. Because
// every random draw flows through the seeded streams, the replay matches
// the original probe for probe; trialrec.Diff(original, replayed)
// returning no divergences is the determinism check.
func Replay(rec *trialrec.Recording) (*trialrec.Recording, []AttackerResult, error) {
	spec, err := SpecFromRecording(rec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	results, _, err := RecordTo(&buf, spec, RunnerOptions{}, 1)
	if err != nil {
		return nil, nil, err
	}
	fresh, err := trialrec.Read(&buf)
	if err != nil {
		return nil, nil, err
	}
	return fresh, results, nil
}
