package netsim

import (
	"math"
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// faultFabric builds the standard evaluation fabric with the given
// network seed.
func faultFabric(t *testing.T, seed int64) (*Network, *Sim, EvaluationSetup) {
	t.Helper()
	rs := attackPolicy(t)
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	sim := NewSim()
	n := NewNetwork(sim, universe, NewControllerModel(rs, controller.Options{}), DefaultLatencyModel(), stats.NewRNG(seed))
	if err := StanfordBackbone().Build(n, 3, 0.1); err != nil {
		t.Fatal(err)
	}
	setup, err := AttachEvaluationHosts(n, flows.MakeIPv4(10, 0, 1, 0), 4, "yoza_rtr", "boza_rtr")
	if err != nil {
		t.Fatal(err)
	}
	return n, sim, setup
}

// TestFaultLossClassifiesProbeLost: at LossProb 1 every probe is lost,
// yields an explicit Lost result instead of an error, and installs
// nothing (drop happens before the ingress lookup).
func TestFaultLossClassifiesProbeLost(t *testing.T) {
	n, _, setup := faultFabric(t, 3)
	n.SetFaults(faults.Profile{Seed: 1, LossProb: 1})
	if !n.FaultsEnabled() {
		t.Fatal("faults not enabled")
	}
	prober := NewProber(n, setup)
	res, err := prober.Probe(0, 0)
	if err != nil {
		t.Fatalf("lost probe must not error: %v", err)
	}
	if !res.Lost || res.Hit {
		t.Fatalf("want Lost miss, got %+v", res)
	}
	if !math.IsNaN(res.RTTms) {
		t.Fatalf("lost probe carries an RTT: %v", res.RTTms)
	}
	if n.Switch(setup.Ingress).Table.Contains(0, 1) {
		t.Fatal("dropped probe installed a rule")
	}
	if n.PacketIns != 0 {
		t.Fatal("dropped probe consulted the controller")
	}
}

// TestFaultJitterDelaysButDelivers: pure jitter never loses a probe and
// inflates the RTT.
func TestFaultJitterDelaysButDelivers(t *testing.T) {
	clean, _, setupC := faultFabric(t, 3)
	jitter, _, setupJ := faultFabric(t, 3)
	jitter.SetFaults(faults.Profile{Seed: 2, JitterMeanMs: 1})

	rc, err := NewProber(clean, setupC).Probe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := NewProber(jitter, setupJ).Probe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Lost {
		t.Fatal("jitter-only profile lost a probe")
	}
	if rj.RTTms <= rc.RTTms {
		t.Fatalf("jittered RTT %.4f not above clean RTT %.4f", rj.RTTms, rc.RTTms)
	}
}

// TestFaultDeterminism: the same (network seed, fault seed) pair gives
// the identical probe outcome sequence; changing only the fault seed
// changes it.
func TestFaultDeterminism(t *testing.T) {
	run := func(faultSeed int64) []ProbeResult {
		n, _, setup := faultFabric(t, 3)
		n.SetFaults(faults.Profile{Seed: faultSeed, LossProb: 0.3, JitterMeanMs: 0.5})
		prober := NewProber(n, setup)
		out := make([]ProbeResult, 20)
		at := 0.0
		for i := range out {
			res, err := prober.Probe(flows.ID(i%4), at)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
			at = n.sim.Now() + 0.05
		}
		return out
	}
	equal := func(a, b ProbeResult) bool {
		if a.Lost != b.Lost || a.Hit != b.Hit {
			return false
		}
		return a.RTTms == b.RTTms || (math.IsNaN(a.RTTms) && math.IsNaN(b.RTTms))
	}
	a, b := run(7), run(7)
	for i := range a {
		if !equal(a[i], b[i]) {
			t.Fatalf("probe %d diverged under identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if !equal(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fault seeds 7 and 8 produced identical sequences")
	}
}

// TestFaultTelemetryCounters: drops surface in the faults_* series.
func TestFaultTelemetryCounters(t *testing.T) {
	n, _, setup := faultFabric(t, 3)
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	n.SetFaults(faults.Profile{Seed: 1, LossProb: 1})
	if _, err := NewProber(n, setup).Probe(0, 0); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`faults_loss_total{layer="netsim"}`]; got == 0 {
		t.Fatal("no loss recorded in telemetry")
	}
}

// TestFaultControllerSlowdown: SlowFactor inflates miss RTTs only.
func TestFaultControllerSlowdown(t *testing.T) {
	clean, _, setupC := faultFabric(t, 3)
	slow, _, setupS := faultFabric(t, 3)
	slow.SetFaults(faults.Profile{Seed: 5, StallProb: 1, StallMs: 50})

	rc, err := NewProber(clean, setupC).Probe(0, 0) // first probe always misses
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewProber(slow, setupS).Probe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Hit || rs.Hit {
		t.Fatalf("first probes should miss: clean=%+v stalled=%+v", rc, rs)
	}
	if rs.RTTms < rc.RTTms+40 {
		t.Fatalf("stalled miss RTT %.3f not ≈50ms above clean %.3f", rs.RTTms, rc.RTTms)
	}
}
