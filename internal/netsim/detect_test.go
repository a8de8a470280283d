package netsim

import (
	"testing"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// detectFabric builds the 4-flow attack fabric with a detector attached.
func detectFabric(t *testing.T, cfg detect.Config) (*Fleet, EvaluationSetup, *detect.Detector) {
	t.Helper()
	d := detect.New(cfg)
	f, setup := attackFleet(t, attackPolicy(t), controller.Options{ProcessingDelay: time.Millisecond}, FleetConfig{Detector: d})
	return f, setup, d
}

// TestNetworkDetectorFlagsRegularProbing drives the §VI attack loop —
// benign Poisson traffic with a regularly paced prober on top — through
// the virtual-time fabric and requires the attached detector to flag the
// probed flow while leaving the benign flows unflagged.
func TestNetworkDetectorFlagsRegularProbing(t *testing.T) {
	cfg := detect.DefaultConfig()
	cfg.WindowSec = 10
	cfg.MinObs = 6
	cfg.MinGaps = 6
	cfg.Baseline.Rates = []float64{0.8, 0.5, 0.3, 0.6}
	f, setup, d := detectFabric(t, cfg)

	trace, err := workload.GeneratePoisson(workload.PoissonConfig{
		Rates:    []float64{0.8, 0.5, 0.3, 0.6},
		Duration: 20,
	}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayTrace(f, setup, trace, 0); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(20)

	// Eviction probing: flow 3 every 0.4 s — pathologically regular next
	// to the Poisson background.
	prober := NewFleetProber(f)
	at := 20.0
	probes := 0
	for i := 0; i < 60; i++ {
		if _, err := setup.ProbeFlow(prober, 3, at); err != nil {
			t.Fatal(err)
		}
		probes++
		at += 0.4
		if _, ok := d.IsFlagged(3); ok {
			break
		}
	}
	v, ok := d.IsFlagged(3)
	if !ok {
		t.Fatalf("regular probing of flow 3 not flagged after %d probes; top=%+v", probes, d.TopOffenders(4))
	}
	if v.Reason != detect.ReasonRegularity && v.Reason != detect.ReasonRate {
		t.Fatalf("flag reason = %q, want rate or regularity", v.Reason)
	}
	if probes > 60 {
		t.Fatalf("detection took %d probes, want well under the 200-probe budget", probes)
	}
	for _, benign := range []int{0, 1, 2} {
		if _, ok := d.IsFlagged(benign); ok {
			t.Fatalf("benign flow %d flagged: %+v", benign, d.TopOffenders(4))
		}
	}
	// The delivery hook attributed real timing: the flagged flow's RTT
	// sketch must hold millisecond-scale probes.
	var row detect.SourceSummary
	for _, r := range d.TopOffenders(4) {
		if r.Source == 3 {
			row = r
		}
	}
	if row.RTTp50Ms <= 0 {
		t.Fatalf("flagged source has no RTT observations: %+v", row)
	}
}

// TestNetworkDetectorDoesNotPerturbSimulation pins the defender's
// read-only contract: attaching a detector must not change the fabric's
// packet-in count or probe RTTs.
func TestNetworkDetectorDoesNotPerturbSimulation(t *testing.T) {
	run := func(withDetector bool) (int64, []float64) {
		var d *detect.Detector
		if withDetector {
			d = detect.New(detect.DefaultConfig())
		}
		f, setup := attackFleet(t, attackPolicy(t), controller.Options{}, FleetConfig{Seed: 11, Detector: d})
		trace, err := workload.GeneratePoisson(workload.PoissonConfig{
			Rates:    []float64{0.8, 0.5, 0.3, 0.6},
			Duration: 10,
		}, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := ReplayTrace(f, setup, trace, 0); err != nil {
			t.Fatal(err)
		}
		f.RunUntil(10)
		prober := NewFleetProber(f)
		var rtts []float64
		at := 10.0
		for i := 0; i < 10; i++ {
			res, err := setup.ProbeFlow(prober, flows.ID(i%4), at)
			if err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, res.RTTms)
			at += 0.2
		}
		return controllerPacketIns(f), rtts
	}
	pinsOff, rttsOff := run(false)
	pinsOn, rttsOn := run(true)
	if pinsOff != pinsOn {
		t.Fatalf("PacketIns differ: %d without detector, %d with", pinsOff, pinsOn)
	}
	for i := range rttsOff {
		if rttsOff[i] != rttsOn[i] {
			t.Fatalf("probe %d RTT differs: %v vs %v", i, rttsOff[i], rttsOn[i])
		}
	}
}
