package experiment

import (
	"fmt"

	"flowrecon/internal/core"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// Fig7Options scales the Figure 7 reproduction.
type Fig7Options struct {
	Params          Params
	Configs         int
	TrialsPerConfig int
	MaxAttempts     int
	Seed            int64
	// SaveDir, when non-empty, receives one JSON file per accepted
	// configuration (see SaveConfig) for exact re-runs.
	SaveDir string
	// Telemetry, when non-nil, receives the run's experiment metrics
	// cumulatively across all configurations (see Fig6Options.Telemetry).
	Telemetry *telemetry.Registry
	// Parallelism is the per-configuration trial-runner worker count
	// (see TrialRunner.RunTrials). Results are identical at every
	// level.
	Parallelism int
}

// DefaultFig7Options returns a laptop-scale version of the paper's run.
func DefaultFig7Options() Fig7Options {
	return Fig7Options{
		Params:          DefaultParams(),
		Configs:         100,
		TrialsPerConfig: 100,
		MaxAttempts:     2000,
		Seed:            2,
	}
}

// CoverBucket is one x-axis bin of Figure 7a: the number of rules
// covering the target flow.
type CoverBucket struct {
	NumCovering int
	Accuracy    map[string]float64
	Configs     int
}

// Fig7Result reproduces both panels of Figure 7: the restricted model
// attacker (barred from probing the target even when it is optimal)
// against the naive and random attackers.
type Fig7Result struct {
	// ByCover is Figure 7a.
	ByCover []CoverBucket
	// ByAbsence is Figure 7b.
	ByAbsence []AbsenceBucket
	// Outcomes are per-configuration accuracies.
	Outcomes  []ConfigOutcome
	Attempted int
}

// RunFig7 reproduces Figure 7. Configurations are filtered only by the
// detector-viability of the optimal probe (the restriction of §VI-B); the
// model attacker must probe the best flow other than the target.
func RunFig7(opts Fig7Options) (*Fig7Result, error) {
	rng := stats.NewRNG(opts.Seed)
	meas := DefaultMeasurement()
	res := &Fig7Result{}

	for res.Attempted = 0; res.Attempted < opts.MaxAttempts && len(res.Outcomes) < opts.Configs; res.Attempted++ {
		// Cycle the target-absence strata (see AbsenceStrata).
		nc, err := GenerateConfig(opts.Params.WithStratum(res.Attempted), rng.Fork())
		if err != nil {
			continue
		}
		if !nc.DetectorViable() {
			continue
		}
		restricted, err := core.NewModelAttacker(nc.Selector, nc.Selector.FlowsExcept(nc.Target), 1, core.DecideByPosterior)
		if err != nil {
			return nil, err
		}
		attackers := []core.Attacker{
			&core.NaiveAttacker{TargetFlow: nc.Target},
			restricted,
			&core.RandomAttacker{PPresent: 1 - nc.PAbsent()},
		}
		runner := NewTrialRunner(nc, attackers, meas, RunnerOptions{Registry: opts.Telemetry})
		results, err := runner.RunTrials(opts.TrialsPerConfig, rng.Int63(), opts.Parallelism)
		if err != nil {
			return nil, err
		}
		out := ConfigOutcome{
			PAbsent:           nc.PAbsent(),
			NumCoveringTarget: nc.NumCoveringTarget,
			OptimalFlow:       int(nc.Optimal.Flow),
			TargetFlow:        int(nc.Target),
			Accuracy:          map[string]float64{},
		}
		for _, r := range results {
			out.Accuracy[r.Name] = r.Accuracy()
		}
		if err := saveAccepted(opts.SaveDir, "fig7", len(res.Outcomes), nc); err != nil {
			return nil, err
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	if len(res.Outcomes) == 0 {
		return nil, fmt.Errorf("experiment: no qualifying configurations in %d attempts", res.Attempted)
	}
	res.ByCover = bucketByCover(res.Outcomes)
	res.ByAbsence = bucketByAbsence(res.Outcomes, 5)
	return res, nil
}

func bucketByCover(outcomes []ConfigOutcome) []CoverBucket {
	maxCover := 0
	for _, o := range outcomes {
		if o.NumCoveringTarget > maxCover {
			maxCover = o.NumCoveringTarget
		}
	}
	buckets := make([]CoverBucket, maxCover+1)
	counts := make([]map[string]int, maxCover+1)
	for i := range buckets {
		buckets[i] = CoverBucket{NumCovering: i, Accuracy: map[string]float64{}}
		counts[i] = map[string]int{}
	}
	for _, o := range outcomes {
		b := &buckets[o.NumCoveringTarget]
		b.Configs++
		for name, acc := range o.Accuracy {
			b.Accuracy[name] += acc
			counts[o.NumCoveringTarget][name]++
		}
	}
	var out []CoverBucket
	for i := range buckets {
		for name, n := range counts[i] {
			if n > 0 {
				buckets[i].Accuracy[name] /= float64(n)
			}
		}
		if buckets[i].Configs > 0 {
			out = append(out, buckets[i])
		}
	}
	return out
}
