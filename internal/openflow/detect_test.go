package openflow

import (
	"testing"
	"time"

	"flowrecon/internal/detect"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

// TestControllerDetectorFlagsEvictionChurn runs the eviction-probing
// signature over real loopback TCP: with a one-entry flow table, a
// prober cycling two covered flows forces every inject through the
// controller, and the attached detector must flag both probed flows on
// their PACKET_IN rate. The test scores on rate only (wall-clock gap
// regularity is scheduler-dependent, not something CI should gate on).
func TestControllerDetectorFlagsEvictionChurn(t *testing.T) {
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 2},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 2},
		{Name: "r2", Cover: flows.SetOf(2), Priority: 1, Timeout: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := detect.DefaultConfig()
	cfg.WindowSec = 5
	cfg.Baseline.DefaultRate = 0.2 // benign clients rarely miss
	cfg.RateZ = 3
	cfg.MinObs = 6
	cfg.MinGaps = 1 << 20 // regularity off: wall-clock gaps are CI noise
	d := detect.New(cfg)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)

	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5})
	ctl.SetDetector(d)
	ctl.SetTelemetry(reg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(1, rs, universe, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		sw.Close()
		ctl.Close()
	}()

	// Capacity 1: alternating two covered flows evicts on every probe,
	// so each inject is a miss → PACKET_IN → detector observation.
	for i := 0; i < 40; i++ {
		fid := flows.ID(0)
		if i%2 == 1 {
			fid = 2
		}
		if _, err := sw.Inject(universe.Tuple(fid)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, fid := range []int{0, 2} {
		v, ok := d.IsFlagged(fid)
		if !ok {
			t.Fatalf("eviction churn on flow %d not flagged; top=%+v", fid, d.TopOffenders(4))
		}
		if v.Reason != detect.ReasonRate {
			t.Fatalf("flow %d flag reason = %q, want %q", fid, v.Reason, detect.ReasonRate)
		}
	}
	if _, ok := d.IsFlagged(1); ok {
		t.Fatal("unprobed flow 1 flagged")
	}
	if got := reg.Counter("detect_observations_total").Value(); got < 40 {
		t.Fatalf("detect_observations_total = %d, want ≥ 40 (one per miss)", got)
	}
	if got := reg.Counter("detect_flagged_total", "reason", detect.ReasonRate).Value(); got != 2 {
		t.Fatalf("detect_flagged_total{rate} = %d, want 2", got)
	}
	if got := reg.Gauge("detect_sources_tracked").Value(); got != int64(d.Sources()) {
		t.Fatalf("tracked gauge %d != live sources %d", got, d.Sources())
	}
}
