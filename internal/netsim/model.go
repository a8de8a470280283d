package netsim

import (
	"flowrecon/internal/controller"
	"flowrecon/internal/rules"
)

// LatencyModel holds the timing parameters of the simulated fabric. The
// defaults are calibrated so that echo round trips through the standard
// topology reproduce the paper's measurements: hit ≈ N(0.087 ms, 0.021 ms)
// and miss ≈ N(4.070 ms, 1.806 ms) (§VI-A).
type LatencyModel struct {
	// HostLink is the host↔switch propagation delay (seconds, one way).
	HostLink float64
	// SwitchLink is the switch↔switch propagation delay.
	SwitchLink float64
	// HopMean/HopStd describe per-switch forwarding time on a table hit.
	HopMean, HopStd float64
	// SetupMean/SetupStd describe the extra delay of a table miss: the
	// controller round trip, rule computation, and table insertion
	// (t_setup in §III-A).
	SetupMean, SetupStd float64
	// SetupFloor is the minimum setup delay — a controller round trip
	// has a physical lower bound, which is what keeps the paper's 1 ms
	// threshold clean despite the 1.8 ms standard deviation.
	SetupFloor float64
}

// DefaultLatencyModel returns the calibrated parameters.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		HostLink:   5e-6,
		SwitchLink: 10e-6,
		HopMean:    6.5e-6,
		HopStd:     3e-6,
		SetupMean:  3.983e-3,
		SetupStd:   1.8e-3,
		SetupFloor: 1.9e-3,
	}
}

// ControllerModel is the simulated control plane: the shared reactive
// controller application plus the switch-side delay countermeasure.
type ControllerModel struct {
	// App decides reactive installs, proactive deployment, and carries
	// the controller-side countermeasures (see internal/controller).
	App *controller.Reactive
	// ExtraHitDelay delays every packet, hit or miss, hiding the side
	// channel (countermeasure 1, "adding delays").
	ExtraHitDelay float64
}

// NewControllerModel wraps a policy in the default reactive application —
// the §VI-A setup.
func NewControllerModel(policy *rules.Set, opts controller.Options) ControllerModel {
	return ControllerModel{App: controller.New(policy, opts)}
}
