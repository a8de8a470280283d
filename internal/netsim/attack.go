package netsim

import (
	"fmt"

	"flowrecon/internal/flows"
	"flowrecon/internal/workload"
)

// This file drives the paper's attack through the simulated network: the
// background hosts replay a traffic trace as echo exchanges, and the
// attacker injects forged-source probes and classifies their RTTs with
// the 1 ms threshold — exactly the §VI-A procedure, but in virtual time.

// ReplayTrace schedules every arrival of trace as an echo from its source
// host to the destination, offset seconds into the simulation. Flow IDs
// index setup.SourceHosts.
func ReplayTrace(f *Fleet, setup EvaluationSetup, trace *workload.Trace, offset float64) error {
	for _, a := range trace.Arrivals() {
		src, err := setup.sourceHost(a.Flow)
		if err != nil {
			return err
		}
		if _, err := f.SendEcho(src, setup.Destination, offset+a.Time); err != nil {
			return err
		}
	}
	return nil
}

// ProbeResult is the attacker's view of one probe.
type ProbeResult struct {
	// RTTms is the observed round-trip time in milliseconds (NaN when
	// the probe was lost).
	RTTms float64
	// Hit is the attacker's classification: RTT below the threshold
	// means a covering rule was cached (§III-A).
	Hit bool
	// Lost reports that no reply arrived before the probe deadline — the
	// probe or its reply was dropped by an injected fault. A lost probe
	// carries no timing observation: threshold attackers treat it as a
	// miss, model attackers as an explicit no-observation step.
	Lost bool
}

// ProbeFlow forges evaluation flow f through p at virtual time at. The
// paper's attacker spoofs a source host's address and listens for the
// reply on the shared switch port; in the simulator this is equivalent to
// sending from that host, since only the ingress flow table sees the
// source.
func (s EvaluationSetup) ProbeFlow(p *FleetProber, f flows.ID, at float64) (ProbeResult, error) {
	src, err := s.sourceHost(f)
	if err != nil {
		return ProbeResult{}, err
	}
	return p.Probe(src, s.Destination, at)
}

// sourceHost names the evaluation host that originates flow f.
func (s EvaluationSetup) sourceHost(f flows.ID) (string, error) {
	if f < 0 || int(f) >= len(s.SourceHosts) {
		return "", fmt.Errorf("netsim: flow %d outside the %d evaluation hosts", f, len(s.SourceHosts))
	}
	return s.SourceHosts[f], nil
}
