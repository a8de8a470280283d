package experiment

import (
	"fmt"
	"sort"

	"flowrecon/internal/core"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// Fig6Options scales the Figure 6 reproduction. The paper used 100
// network configurations × 100 trials; smaller values keep bench runs
// tractable while preserving the comparison's shape.
type Fig6Options struct {
	Params          Params
	Configs         int // qualifying configurations to collect
	TrialsPerConfig int
	MaxAttempts     int // sampling budget before giving up
	Seed            int64
	// SaveDir, when non-empty, receives one JSON file per accepted
	// configuration (see SaveConfig) for exact re-runs.
	SaveDir string
	// Telemetry, when non-nil, receives the run's experiment metrics
	// (trial counters, probe hit/miss delay histograms, per-attacker
	// confusion-matrix counters) cumulatively across all configurations.
	Telemetry *telemetry.Registry
	// Parallelism is the per-configuration trial-runner worker count
	// (see TrialRunner.RunTrials). Results are identical at every
	// level.
	Parallelism int
}

// DefaultFig6Options returns a laptop-scale version of the paper's run.
func DefaultFig6Options() Fig6Options {
	return Fig6Options{
		Params:          DefaultParams(),
		Configs:         100,
		TrialsPerConfig: 100,
		MaxAttempts:     2000,
		Seed:            1,
	}
}

// AbsenceBucket is one x-axis bin of Figure 6a/7b: target-flow absence
// probability in [Lo, Hi).
type AbsenceBucket struct {
	Lo, Hi float64
	// Accuracy[name] is the mean accuracy of that attacker over the
	// configurations in this bucket.
	Accuracy map[string]float64
	Configs  int
}

// ConfigOutcome records one configuration's attacker accuracies.
type ConfigOutcome struct {
	PAbsent           float64
	NumCoveringTarget int
	OptimalFlow       int
	TargetFlow        int
	Accuracy          map[string]float64
}

// Fig6Result reproduces both panels of Figure 6.
type Fig6Result struct {
	// Buckets is Figure 6a: accuracy vs probability of absence, for the
	// model and naive attackers.
	Buckets []AbsenceBucket
	// ImprovementCDF is Figure 6b: the empirical CDF of the per-config
	// additive improvement (model − naive accuracy).
	ImprovementCDF []stats.CDFPoint
	// Outcomes are the per-configuration raw numbers.
	Outcomes []ConfigOutcome
	// Attempted counts configurations sampled to find the qualifying set.
	Attempted int
	// MeanModel/MeanNaive are population means (the paper's "~2% on
	// average" comparison).
	MeanModel, MeanNaive float64
}

// RunFig6 reproduces Figure 6: over configurations where the
// model-calculated optimal probe differs from the target flow (and the
// optimal probe is a viable detector, §VI-B), compare the model attacker
// (probe = optimal flow, verdict = query result) with the naive attacker
// (probe = target flow).
func RunFig6(opts Fig6Options) (*Fig6Result, error) {
	rng := stats.NewRNG(opts.Seed)
	meas := DefaultMeasurement()
	res := &Fig6Result{}
	var improvements []float64

	for res.Attempted = 0; res.Attempted < opts.MaxAttempts && len(res.Outcomes) < opts.Configs; res.Attempted++ {
		// Cycle the target-absence strata so the x-axis of Figure 6a is
		// populated end to end (see AbsenceStrata).
		nc, err := GenerateConfig(opts.Params.WithStratum(res.Attempted), rng.Fork())
		if err != nil {
			continue // unlucky sample (e.g. no eligible target)
		}
		if !nc.OptimalDiffersFromTarget() || !nc.DetectorViable() {
			continue
		}
		model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), 1, core.DecideByQuery)
		if err != nil {
			return nil, err
		}
		attackers := []core.Attacker{
			&core.NaiveAttacker{TargetFlow: nc.Target},
			model,
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
		if err := saveAccepted(opts.SaveDir, "fig6", len(res.Outcomes), nc); err != nil {
			return nil, err
		}
		res.Outcomes = append(res.Outcomes, out)
		improvements = append(improvements, out.Accuracy[model.Name()]-out.Accuracy["naive"])
	}
	if len(res.Outcomes) == 0 {
		return nil, fmt.Errorf("experiment: no qualifying configurations in %d attempts", res.Attempted)
	}
	res.Buckets = bucketByAbsence(res.Outcomes, 5)
	res.ImprovementCDF = stats.EmpiricalCDF(improvements)
	res.MeanModel, res.MeanNaive = populationMeans(res.Outcomes)
	return res, nil
}

// bucketByAbsence bins outcomes into nbins equal-width absence buckets.
func bucketByAbsence(outcomes []ConfigOutcome, nbins int) []AbsenceBucket {
	buckets := make([]AbsenceBucket, nbins)
	counts := make([]map[string]int, nbins)
	for i := range buckets {
		buckets[i] = AbsenceBucket{
			Lo:       float64(i) / float64(nbins),
			Hi:       float64(i+1) / float64(nbins),
			Accuracy: map[string]float64{},
		}
		counts[i] = map[string]int{}
	}
	for _, o := range outcomes {
		i := int(o.PAbsent * float64(nbins))
		if i >= nbins {
			i = nbins - 1
		}
		buckets[i].Configs++
		for name, acc := range o.Accuracy {
			buckets[i].Accuracy[name] += acc
			counts[i][name]++
		}
	}
	for i := range buckets {
		for name, n := range counts[i] {
			if n > 0 {
				buckets[i].Accuracy[name] /= float64(n)
			}
		}
	}
	return buckets
}

// populationMeans returns the mean model and naive accuracies over all
// outcomes. The "model" attacker is whichever non-naive, non-random name
// appears.
func populationMeans(outcomes []ConfigOutcome) (model, naive float64) {
	n := 0
	for _, o := range outcomes {
		naive += o.Accuracy["naive"]
		for name, acc := range o.Accuracy {
			if name != "naive" && name != "random" {
				model += acc
			}
		}
		n++
	}
	if n > 0 {
		model /= float64(n)
		naive /= float64(n)
	}
	return model, naive
}

// ImprovementQuantiles summarizes Figure 6b the way the paper quotes it:
// the fraction of configurations whose improvement is at least each
// threshold.
func (r *Fig6Result) ImprovementQuantiles(thresholds []float64) map[float64]float64 {
	out := make(map[float64]float64, len(thresholds))
	if len(r.Outcomes) == 0 {
		return out
	}
	for _, th := range thresholds {
		n := 0
		for _, o := range r.Outcomes {
			imp := -o.Accuracy["naive"]
			for name, acc := range o.Accuracy {
				if name != "naive" && name != "random" {
					imp += acc
				}
			}
			if imp >= th {
				n++
			}
		}
		out[th] = float64(n) / float64(len(r.Outcomes))
	}
	return out
}

// sortedAttackerNames lists the attacker names appearing in outcomes.
func sortedAttackerNames(outcomes []ConfigOutcome) []string {
	seen := map[string]bool{}
	for _, o := range outcomes {
		for name := range o.Accuracy {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
