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

// TestDetectorRecycleZeroAlloc pins the per-trial replica's warm cycle:
// Reset, a run of observations over sources it has tracked before, and a
// Merge into an aggregate that knows those sources must not allocate —
// the restart reuses the replica's per-source states and rate-window
// buckets, and Merge orders the replica's sources in scratch it owns.
func TestDetectorRecycleZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	agg, replica := New(cfg), New(cfg)
	agg.SetTelemetry(telemetry.NewRegistry())
	cycle := func() {
		replica.Reset(cfg)
		now := 0.0
		for i := 0; i < 40; i++ {
			now += 0.013
			for src := 0; src < 8; src++ {
				replica.Observe(src, now, 4.07, src%2 == 0)
			}
		}
		agg.Merge(replica)
	}
	cycle() // warm: the replica's states, its merge scratch, the aggregate's sources
	if len(replica.Verdicts()) == 0 {
		t.Fatal("setup: the replica flagged nothing, so the verdict path goes unmeasured")
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("recycled Reset + Observe + Merge allocates %v allocs/run, want 0", avg)
	}
}
