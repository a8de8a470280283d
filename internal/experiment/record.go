package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"flowrecon/internal/core"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
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

// maxConfigAttempts bounds the deterministic resampling loop in
// BuildConfig (GenerateConfig fails when no flow qualifies as a target).
const maxConfigAttempts = 64

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
	rng := stats.NewRNG(s.ConfigSeed)
	var lastErr error
	for attempt := 0; attempt < maxConfigAttempts; attempt++ {
		nc, err := GenerateConfigWithRates(s.Params, fitted, rng, b)
		if err == nil {
			return nc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("experiment: no viable configuration after %d attempts: %w", maxConfigAttempts, lastErr)
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

// RecordTo executes the spec and streams the recording to w (which is
// not closed). reg optionally receives the run's telemetry, the model
// build's among it. It returns the per-attacker results alongside the
// regenerated configuration.
func RecordTo(w io.Writer, spec RecordingSpec, reg *telemetry.Registry) ([]AttackerResult, *NetworkConfig, error) {
	return RecordToParallel(w, spec, reg, 1)
}

// RecordToParallel is RecordTo on a worker pool. Recordings are assembled
// in strict trial order whatever the parallelism, so the output bytes are
// identical at every level — which the golden tests pin.
func RecordToParallel(w io.Writer, spec RecordingSpec, reg *telemetry.Registry, parallelism int) ([]AttackerResult, *NetworkConfig, error) {
	nc, err := spec.BuildConfig(core.NewBuilds(reg, false))
	if err != nil {
		return nil, nil, err
	}
	source, err := spec.Trace.Source()
	if err != nil {
		return nil, nil, err
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(attackers))
	for i, a := range attackers {
		names[i] = a.Name()
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	rec, err := trialrec.NewRecorder(struct{ io.Writer }{w}, trialrec.Header{
		Spec:      specJSON,
		Seed:      spec.TrialSeed,
		Trials:    spec.Trials,
		Attackers: names,
	})
	if err != nil {
		return nil, nil, err
	}
	opts := RunnerOptions{Source: source, Registry: reg, Record: true}
	if spec.Faults != nil {
		opts.Faults = *spec.Faults
	}
	runner := NewTrialRunner(nc, attackers, spec.Measurement, opts)
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
	results, _, err := RecordTo(&buf, spec, nil)
	if err != nil {
		return nil, nil, err
	}
	fresh, err := trialrec.Read(&buf)
	if err != nil {
		return nil, nil, err
	}
	return fresh, results, nil
}
