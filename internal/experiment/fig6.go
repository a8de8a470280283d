package experiment

import (
	"fmt"
	"sort"

	"flowrecon/internal/core"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// FigureOptions scales a Figure 6 or Figure 7 reproduction. The paper
// used 100 network configurations × 100 trials; smaller values keep
// bench runs tractable while preserving the comparison's shape.
type FigureOptions struct {
	Params          Params
	Configs         int // qualifying configurations to collect
	TrialsPerConfig int
	MaxAttempts     int // sampling budget before giving up
	Seed            int64
	// Telemetry, when non-nil, receives the run's experiment metrics
	// (trial counters, probe hit/miss delay histograms, per-attacker
	// confusion-matrix counters) cumulatively across all configurations.
	Telemetry *telemetry.Registry
	// Parallelism is the per-configuration trial-runner worker count
	// (see TrialRunner.RunTrials). Results are identical at every
	// level.
	Parallelism int
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
// (probe = optimal flow; its posterior threshold returns the query result
// on a viable detector) with the naive attacker (probe = target flow).
func RunFig6(opts FigureOptions) (*Fig6Result, error) {
	accept := func(nc *NetworkConfig) bool { return nc.OptimalDiffersFromTarget() && nc.DetectorViable() }
	roster := func(nc *NetworkConfig) ([]core.Attacker, error) {
		model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), 1)
		if err != nil {
			return nil, err
		}
		return []core.Attacker{&core.NaiveAttacker{TargetFlow: nc.Target}, model}, nil
	}
	outcomes, attempted, err := sampleFigure(opts, accept, roster)
	if err != nil {
		return nil, err
	}
	improvements := make([]float64, len(outcomes))
	for i, o := range outcomes {
		improvements[i] = o.improvement()
	}
	res := &Fig6Result{
		Buckets:        bucketByAbsence(outcomes, 5),
		ImprovementCDF: stats.EmpiricalCDF(improvements),
		Outcomes:       outcomes,
		Attempted:      attempted,
	}
	res.MeanModel, res.MeanNaive = populationMeans(outcomes)
	return res, nil
}

// sampleFigure is the Figure 6/7 sampling loop. It draws configurations
// cycling the target-absence strata, so the absence axis is populated
// end to end (see AbsenceStrata), and skips those accept rejects. Each
// accepted configuration runs opts.TrialsPerConfig trials of the
// attackers roster builds for it. Sampling stops at opts.Configs
// outcomes or opts.MaxAttempts draws; attempted counts the draws.
func sampleFigure(opts FigureOptions, accept func(*NetworkConfig) bool,
	roster func(*NetworkConfig) ([]core.Attacker, error)) (outcomes []ConfigOutcome, attempted int, err error) {
	rng := stats.NewRNG(opts.Seed)
	meas := DefaultMeasurement()
	for ; attempted < opts.MaxAttempts && len(outcomes) < opts.Configs; attempted++ {
		nc, err := GenerateConfig(opts.Params.WithStratum(attempted), rng.Fork())
		if err != nil || !accept(nc) {
			continue // an unlucky sample (e.g. no eligible target) or outside the population
		}
		attackers, err := roster(nc)
		if err != nil {
			return nil, attempted, err
		}
		runner := NewTrialRunner(nc, attackers, meas, RunnerOptions{Registry: opts.Telemetry})
		results, err := runner.RunTrials(opts.TrialsPerConfig, rng.Int63(), opts.Parallelism)
		if err != nil {
			return nil, attempted, err
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
		outcomes = append(outcomes, out)
	}
	if len(outcomes) == 0 {
		return nil, attempted, fmt.Errorf("experiment: no qualifying configurations in %d attempts", attempted)
	}
	return outcomes, attempted, nil
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
			if o.improvement() >= th {
				n++
			}
		}
		out[th] = float64(n) / float64(len(r.Outcomes))
	}
	return out
}

// improvement is the outcome's additive improvement over the naive
// attacker: the accuracy of the attackers other than naive and random
// (Figure 6's one model attacker) less naive's.
func (o ConfigOutcome) improvement() float64 {
	imp := -o.Accuracy["naive"]
	for name, acc := range o.Accuracy {
		if name != "naive" && name != "random" {
			imp += acc
		}
	}
	return imp
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
