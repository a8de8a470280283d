// Package service is the multi-tenant attack daemon behind cmd/flowrecond:
// a session manager with admission control and backpressure, a shared
// model store that amortizes §IV-B model builds across every session
// attacking the same configuration, and a batched probe scheduler that
// coalesces trials from many sessions onto one worker pool instead of one
// goroutine pile per session. Sessions arrive over HTTP as JSON specs and
// stream their per-probe results back as JSONL.
package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"flowrecon/internal/experiment"
)

// SessionSpec is one attack-session request: the target specification
// (configuration parameters + seed), the workload (trace source), and
// the budget (trials × probes). Target reuses the recording spec so a
// session is exactly as reproducible as a recorded CLI run — the same
// spec always yields the same stream.
type SessionSpec struct {
	// Name is a client-chosen label echoed in the result stream. The
	// server never injects its own identifiers into the stream, which is
	// what keeps session output byte-identical at any server concurrency.
	Name string `json:"name,omitempty"`
	// Target pins the attacked configuration, workload and budget.
	Target experiment.RecordingSpec `json:"target"`
	// Detect attaches the streaming anomaly detector to every trial's
	// controller path, feeding the daemon's aggregate defender view.
	Detect bool `json:"detect,omitempty"`
}

// Validate checks the spec. A session spec arrives from the network, so
// on top of the recording spec's own checks it may not name a
// server-side file: a pcap or flow-log trace is refused before anything
// opens it.
func (s *SessionSpec) Validate() error {
	if err := s.Target.Validate(); err != nil {
		return err
	}
	const maxBudget = 1 << 20
	if s.Target.Trials > maxBudget {
		return fmt.Errorf("service: %d trials exceeds the per-session budget cap", s.Target.Trials)
	}
	if s.Target.Trace.IsFile() {
		return fmt.Errorf("service: %q traces read server-side files; a session may not name one", s.Target.Trace.Kind)
	}
	return nil
}

// decodeSpec decodes one session spec from r, refusing unknown fields. It
// does not validate the spec.
func decodeSpec(r io.Reader) (SessionSpec, error) {
	var spec SessionSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// TargetKey identifies a network configuration: two sessions with equal
// keys attack byte-identical configurations and can share one model.
type TargetKey [sha256.Size]byte

// KeyForTarget hashes the configuration-determining part of a spec:
// generation parameters, config seed, and — only when it fits rates —
// the trace source. Trials, probes, the trial seed and faults do not
// affect the generated configuration, so they stay out of the key and
// sessions differing only in budget or workload still share a model.
// Nothing reads params.USum, so it is zeroed before hashing too.
func KeyForTarget(spec experiment.RecordingSpec) (TargetKey, error) {
	payload := struct {
		Params     experiment.Params           `json:"params"`
		ConfigSeed int64                       `json:"configSeed"`
		Trace      *experiment.TraceSourceSpec `json:"trace,omitempty"`
	}{Params: spec.Params, ConfigSeed: spec.ConfigSeed}
	payload.Params.USum = experiment.USumRecord{}
	if spec.Trace != nil && spec.Trace.FitRates {
		payload.Trace = spec.Trace
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return TargetKey{}, err
	}
	return sha256.Sum256(b), nil
}
