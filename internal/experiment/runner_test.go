package experiment

import (
	"testing"

	"flowrecon/internal/testutil"
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
	// 19 on this trial (6 probes across the roster), down from 64 with a
	// replay per attacker; a fresh table and window copy per attacker
	// would add several each, and formatting each probe's span detail
	// again 4 per probe.
	const bound = 19
	if allocs := testing.AllocsPerRun(50, run); allocs > bound {
		t.Fatalf("probing TrialRunner.Run allocates %v per trial, want <= %d", allocs, bound)
	}
}
