package netsim

import (
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

func attackPolicy(t testing.TB) *rules.Set {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 10},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 6},
		{Name: "r2", Cover: flows.SetOf(3), Priority: 1, Timeout: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// attackFleet builds the §VI-A fabric over attackPolicy with capacity-3
// tables; cfg supplies the remaining knobs (seed, faults, detector).
func attackFleet(t testing.TB, rs *rules.Set, opts controller.Options, cfg FleetConfig) (*Fleet, EvaluationSetup) {
	t.Helper()
	cfg.Capacity = 3
	cfg.Ctrl = NewControllerModel(rs, opts)
	return buildEvalFleet(t, cfg)
}

func TestReplayTraceAndProbe(t *testing.T) {
	rs := attackPolicy(t)
	f, setup := attackFleet(t, rs, controller.Options{}, FleetConfig{})
	trace, err := workload.GeneratePoisson(workload.PoissonConfig{
		Rates:    []float64{0.8, 0.5, 0.3, 0.6},
		Duration: 5,
	}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayTrace(f, setup, trace, 0); err != nil {
		t.Fatal(err)
	}
	f.RunUntil(5)
	if f.Packets() != len(trace.Arrivals()) {
		t.Fatalf("replayed %d echoes for %d arrivals", f.Packets(), len(trace.Arrivals()))
	}

	// Ground truth from the ingress switch table itself, read before the
	// probe reaches it.
	ingress := f.Table(setup.Ingress)
	_, cached := rs.MatchIn(0, func(j int) bool { return ingress.Contains(j, 5) })
	res, err := setup.ProbeFlow(NewFleetProber(f), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RTTms <= 0 {
		t.Fatalf("probe RTT = %v", res.RTTms)
	}
	// A hit probe can only refresh an existing rule, never create one,
	// so a hit with no covering rule cached is a bug.
	if res.Hit && !cached {
		t.Fatalf("probe hit but no covering rule cached")
	}
}

func TestReplayTraceValidatesFlows(t *testing.T) {
	f, setup := attackFleet(t, attackPolicy(t), controller.Options{}, FleetConfig{})
	tr, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, Duration: 1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayTrace(f, setup, tr, 0); err == nil {
		t.Fatal("out-of-range trace flow accepted")
	}
	prober := NewFleetProber(f)
	for _, fid := range []flows.ID{99, -1} {
		if _, err := setup.ProbeFlow(prober, fid, 0); err == nil {
			t.Fatalf("out-of-range probe flow %d accepted", fid)
		}
	}
}

// TestNetsimAgreesWithFlowtableReplay cross-validates the two trial
// substrates: the probe outcome through the full network simulation must
// agree with the bare flow-table replay (the experiment package's fast
// path) in the overwhelming majority of windows. Disagreements can only
// come from the µs-scale forwarding offsets the simulator adds.
func TestNetsimAgreesWithFlowtableReplay(t *testing.T) {
	rs := attackPolicy(t)
	rates := []float64{0.8, 0.5, 0.3, 0.6}
	const (
		window = 5.0
		trials = 60
		stepS  = 0.1
		cap    = 3
	)
	agree := 0
	rng := stats.NewRNG(99)
	for i := 0; i < trials; i++ {
		trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: rates, Duration: window}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		// Path A: full network simulation.
		f, setup := attackFleet(t, rs, controller.Options{}, FleetConfig{})
		if err := ReplayTrace(f, setup, trace, 0); err != nil {
			t.Fatal(err)
		}
		f.RunUntil(window)
		res, err := setup.ProbeFlow(NewFleetProber(f), 0, window)
		if err != nil {
			t.Fatal(err)
		}

		// Path B: bare flow-table replay (the experiment fast path).
		tbl, err := flowtable.New(rs, cap, stepS)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range trace.Arrivals() {
			if _, hit := tbl.Lookup(a.Flow, a.Time); !hit {
				if j, covered := rs.HighestCovering(a.Flow); covered {
					tbl.Install(j, a.Time)
				}
			}
		}
		_, wantHit := tbl.Lookup(0, window)
		if res.Hit == wantHit {
			agree++
		}
	}
	if frac := float64(agree) / trials; frac < 0.9 {
		t.Fatalf("netsim and flowtable replay agree on only %.0f%% of trials", 100*frac)
	}
}
