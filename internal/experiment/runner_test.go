package experiment

import (
	"errors"
	"sync/atomic"
	"testing"

	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/testutil"
	"flowrecon/internal/workload"
)

// TestTrialRunnerProbingSteadyStateAllocs is the allocation gate on the
// daemon's warm trial: a TrialRunner run with no span recorder attached
// must not pay for span work it cannot record (the per-probe detail
// string used to be formatted and thrown away), and must replay its
// traffic window once into pooled scratch — a reseeded stream, reused
// arrival buffer and reset tables — rather than build a table and copy
// the window per attacker. The bound is the count measured on this fixed
// trial once both were cut, so neither cost can creep back unseen.
// (Name matches the make alloc-gate regex.)
func TestTrialRunnerProbingSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := smallSpec()
	spec.Probes = 4
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	r := NewTrialRunner(nc, roster, spec.Measurement, RunnerOptions{})
	const trial, seed = 3, 17
	run := func() {
		res, err := r.Run(trial, seed)
		if err != nil || len(res.Attackers) != len(roster) {
			t.Fatalf("Run: %d attackers, err %v", len(res.Attackers), err)
		}
	}
	run() // warm lazily built per-configuration state
	// 11 on this trial (6 probes across the roster). A fresh table and
	// window copy per attacker would add several each, formatting each
	// probe's span detail 4 per probe, growing the attacker records by
	// append 2 per trial, and copying each attacker's planned probe list
	// into its record by append 5 per trial.
	const bound = 11
	if allocs := testing.AllocsPerRun(50, run); allocs > bound {
		t.Fatalf("probing TrialRunner.Run allocates %v per trial, want <= %d", allocs, bound)
	}
}

// TestTrialRunnerDetectSteadyStateAllocs is the allocation gate on the
// chaos session's warm trial: 0.3 ms jitter, 5% probe loss and a
// detector per attacker, handed back after each trial. A trial reseeds
// its fault stream in place and restarts recycled detectors instead of
// allocating either, and a loss-tolerant model attacker decides a lossy
// trial by conditioning a pooled belief tracker without recording a
// belief trajectory, so
//
//   - a detecting trial under jitter allocates at most 4 more times than
//     the plain trial: the detector list and the loss masks of the 3
//     probing attackers, and not the fault stream;
//   - a trial under 5% loss allocates at most 5 more times than the
//     plain trial: the loss masks, and no belief trajectory;
//   - under 5% loss as well, detection adds only the detector list to
//     the faulty trial, lost probes and all.
//
// The fixture is TestTrialRunnerProbingSteadyStateAllocs'. (Name matches
// the make alloc-gate regex.)
func TestTrialRunnerDetectSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := smallSpec()
	spec.Probes = 4
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	dc := detect.DefaultConfig()
	allocs := func(opts RunnerOptions) float64 {
		r := NewTrialRunner(nc, roster, spec.Measurement, opts)
		seeds := TrialSeeds(17, 64)
		i := 0
		run := func() {
			res, err := r.Run(i, seeds[i%len(seeds)])
			if err != nil {
				t.Fatal(err)
			}
			res.ReleaseDetectors()
			i++
		}
		for range seeds { // warm the trial scratch and the detectors' sources
			run()
		}
		return testing.AllocsPerRun(len(seeds), run)
	}
	jitter := faults.Profile{Seed: 3, JitterMeanMs: 0.3}
	lossy := faults.Profile{Seed: 3, LossProb: 0.05, JitterMeanMs: 0.3}
	plain := allocs(RunnerOptions{})
	detecting := allocs(RunnerOptions{Faults: jitter, Detect: &dc})
	faulty := allocs(RunnerOptions{Faults: lossy})
	chaos := allocs(RunnerOptions{Faults: lossy, Detect: &dc})
	t.Logf("allocs per trial: plain %.2f, detecting under jitter %.2f, under loss %.2f without detection and %.2f with", plain, detecting, faulty, chaos)
	if detecting > plain+4 {
		t.Errorf("a detecting trial under jitter allocates %.2f per trial, want <= %.2f (plain + 4)", detecting, plain+4)
	}
	if faulty > plain+5 {
		t.Errorf("a trial under loss allocates %.2f per trial, want <= %.2f (plain + 5)", faulty, plain+5)
	}
	if chaos > faulty+1 {
		t.Errorf("detection adds %.2f allocs to a trial under loss, want <= 1 (the detector list)", chaos-faulty)
	}
}

// TestRunTrialsSteadyStateAllocs is the allocation gate on the in-order
// driver's plain path: in a serial run with no consumers, each further
// trial costs what TrialRunner.Run costs — a trial that returns every
// attacker's probes, outcomes and verdict — and nothing per trial on top.
// The fixture is TestTrialRunnerProbingSteadyStateAllocs'. (Name matches
// the make alloc-gate regex.)
func TestRunTrialsSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := smallSpec()
	spec.Probes = 4
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	r := NewTrialRunner(nc, roster, spec.Measurement, RunnerOptions{})
	allocs := func(trials int) float64 {
		run := func() {
			if _, err := r.RunTrials(trials, 17, 1); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm lazily built per-configuration state and the trial scratch
		return testing.AllocsPerRun(10, run)
	}
	// TestTrialRunnerProbingSteadyStateAllocs' bound: the driver adds
	// nothing per trial to what Run costs.
	const trials, bound = 65, 11
	if perTrial := (allocs(trials) - allocs(1)) / (trials - 1); perTrial > bound {
		t.Fatalf("serial RunTrials allocates %.2f per further trial, want <= %d", perTrial, bound)
	}
}

// TestRunTrialsStopsAfterFailure: once a trial fails, the driver starts
// no further trial — serially and on a pool, where each worker may only
// finish the trial it already holds.
func TestRunTrialsStopsAfterFailure(t *testing.T) {
	spec := smallSpec()
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("source failed")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		source := func(rates []float64, duration float64, rng *stats.RNG) (*workload.Trace, error) {
			if calls.Add(1) == 4 {
				return nil, boom
			}
			return PoissonSource(rates, duration, rng)
		}
		r := NewTrialRunner(nc, roster, spec.Measurement, RunnerOptions{Source: source})
		if _, err := r.RunTrials(1000, 7, workers); !errors.Is(err, boom) {
			t.Fatalf("workers %d: err = %v, want the source's failure", workers, err)
		}
		if n := calls.Load(); n > int64(4+workers) {
			t.Fatalf("workers %d: %d source calls after trial 4 failed, want <= %d", workers, n, 4+workers)
		}
	}
}
