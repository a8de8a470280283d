package detect

import (
	"math"
	"testing"

	"flowrecon/internal/telemetry"
	"flowrecon/internal/testutil"
)

// TestDetectorObserveZeroAlloc is the zero-alloc gate on the detector
// hot path: once a source's state exists, an observation — window
// rotation, sketch update, Welford moments, and all three scorers — must
// not touch the garbage collector. The detector rides the controller
// path of both substrates, so one allocation here taxes every PACKET_IN.
func TestDetectorObserveZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := telemetry.NewRegistry()
	d := New(DefaultConfig())
	d.SetTelemetry(reg)
	// Warm: create per-source state (the one allowed allocation) and
	// drive the probed sources past their flag point so the one-time
	// verdict bookkeeping happens before measurement — steady state here
	// includes the post-flag scoring path.
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 0.013
		for src := 0; src < 8; src++ {
			d.Observe(src, now, 4.07, false)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		now += 0.013
		d.Observe(3, now, 4.07, false)
		d.Observe(4, now+0.001, math.NaN(), true)
		d.ObserveRTT(3, 0.087)
	})
	if avg != 0 {
		t.Fatalf("steady-state Observe allocates %v allocs/run, want 0", avg)
	}
}

// TestDetectorDisabledZeroAlloc pins the disabled path: a nil detector
// must cost one branch and zero allocations, the same discipline as nil
// telemetry instruments — so substrates can call unconditionally.
func TestDetectorDisabledZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var d *Detector
	avg := testing.AllocsPerRun(500, func() {
		d.Observe(1, 0, 4.07, false)
		d.ObserveRTT(1, 0.087)
	})
	if avg != 0 {
		t.Fatalf("nil-detector Observe allocates %v allocs/run, want 0", avg)
	}
}
