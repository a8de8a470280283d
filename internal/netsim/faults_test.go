package netsim

import (
	"math"
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/telemetry"
)

// faultFabric builds the standard evaluation fabric under a fault
// profile, with fleet seed 3.
func faultFabric(t *testing.T, prof faults.Profile, reg *telemetry.Registry) (*Fleet, EvaluationSetup) {
	t.Helper()
	return attackFleet(t, attackPolicy(t), controller.Options{}, FleetConfig{Faults: prof, Registry: reg})
}

// TestFaultLossClassifiesProbeLost: at LossProb 1 every probe is lost,
// yields an explicit Lost result instead of an error, and installs
// nothing (drop happens before the ingress lookup).
func TestFaultLossClassifiesProbeLost(t *testing.T) {
	f, setup := faultFabric(t, faults.Profile{Seed: 1, LossProb: 1}, nil)
	res, err := setup.ProbeFlow(NewFleetProber(f), 0, 0)
	if err != nil {
		t.Fatalf("lost probe must not error: %v", err)
	}
	if !res.Lost || res.Hit {
		t.Fatalf("want Lost miss, got %+v", res)
	}
	if !math.IsNaN(res.RTTms) {
		t.Fatalf("lost probe carries an RTT: %v", res.RTTms)
	}
	if f.Table(setup.Ingress).Contains(0, 1) {
		t.Fatal("dropped probe installed a rule")
	}
	if controllerPacketIns(f) != 0 {
		t.Fatal("dropped probe consulted the controller")
	}
}

// TestFaultJitterDelaysButDelivers: pure jitter never loses a probe and
// inflates the RTT.
func TestFaultJitterDelaysButDelivers(t *testing.T) {
	clean, setupC := faultFabric(t, faults.Profile{}, nil)
	jitter, setupJ := faultFabric(t, faults.Profile{Seed: 2, JitterMeanMs: 1}, nil)

	rc, err := setupC.ProbeFlow(NewFleetProber(clean), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := setupJ.ProbeFlow(NewFleetProber(jitter), 0, 0)
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

// TestFaultDeterminism: the same (fleet seed, fault seed) pair gives the
// identical probe outcome sequence; changing only the fault seed changes
// it.
func TestFaultDeterminism(t *testing.T) {
	run := func(faultSeed int64) []ProbeResult {
		f, setup := faultFabric(t, faults.Profile{Seed: faultSeed, LossProb: 0.3, JitterMeanMs: 0.5}, nil)
		prober := NewFleetProber(f)
		out := make([]ProbeResult, 20)
		at := 0.0
		for i := range out {
			res, err := setup.ProbeFlow(prober, flows.ID(i%4), at)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
			at = f.Now() + 0.05
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

// TestFaultTelemetryCounters: drops surface in the fleet's drop counter.
func TestFaultTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	f, setup := faultFabric(t, faults.Profile{Seed: 1, LossProb: 1}, reg)
	if _, err := setup.ProbeFlow(NewFleetProber(f), 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netsim_fleet_drops_total"]; got == 0 {
		t.Fatal("no loss recorded in telemetry")
	}
}

// TestFaultControllerSlowdown: controller stalls inflate miss RTTs.
func TestFaultControllerSlowdown(t *testing.T) {
	clean, setupC := faultFabric(t, faults.Profile{}, nil)
	slow, setupS := faultFabric(t, faults.Profile{Seed: 5, StallProb: 1, StallMs: 50}, nil)

	rc, err := setupC.ProbeFlow(NewFleetProber(clean), 0, 0) // first probe always misses
	if err != nil {
		t.Fatal(err)
	}
	rs, err := setupS.ProbeFlow(NewFleetProber(slow), 0, 0)
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
