package service

import (
	"sync"

	"flowrecon/internal/experiment"
)

// runSessionsNaive executes specs with the pre-daemon deployment model:
// one goroutine per session, each regenerating its own configuration and
// attacker roster from scratch — the way N independent flowrecon
// processes would. It is the benchmark baseline the batched scheduler is
// measured against; the service must beat it because the naive path
// pays one full model build and selector evolve per session even when
// every session attacks the same target. Like a process of its own, a
// session builds without a u-sum memo, so it shares nothing with another.
func runSessionsNaive(specs []SessionSpec) error {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec SessionSpec) {
			defer wg.Done()
			errs[i] = runNaiveSession(spec)
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runNaiveSession(spec SessionSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	nc, err := spec.Target.BuildConfig(nil)
	if err != nil {
		return err
	}
	roster, err := experiment.StandardAttackers(nc, spec.Target.Probes)
	if err != nil {
		return err
	}
	runner, err := spec.Target.Runner(nc, roster, experiment.RunnerOptions{})
	if err != nil {
		return err
	}
	for t, seed := range experiment.TrialSeeds(spec.Target.TrialSeed, spec.Target.Trials) {
		if _, err := runner.Run(t, seed); err != nil {
			return err
		}
	}
	return nil
}
