package experiment

import (
	"testing"

	"flowrecon/internal/testutil"
)

// TestTrialRunnerProbingSteadyStateAllocs is the allocation gate on the
// daemon's warm trial: a TrialRunner run with no span recorder attached
// must not pay for span work it cannot record (the per-probe detail
// string used to be formatted and thrown away). The bound is the count
// measured on this fixed trial once that work was cut, so the discarded
// formatting cannot creep back unseen. (Name matches the make
// alloc-gate regex.)
func TestTrialRunnerProbingSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := smallSpec()
	spec.Probes = 4
	nc, err := spec.BuildConfig()
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
	// 64 on this trial (6 probes across the roster); formatting each
	// probe's span detail again would add 4 per probe.
	const bound = 64
	if allocs := testing.AllocsPerRun(50, run); allocs > bound {
		t.Fatalf("probing TrialRunner.Run allocates %v per trial, want <= %d", allocs, bound)
	}
}
