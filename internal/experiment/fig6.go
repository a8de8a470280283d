package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	// confusion-matrix counters) cumulatively across all configurations,
	// plus the sampler's figure_attempts_total (attempts committed),
	// figure_screened_total (committed attempts rejected by the figure's
	// screen before their conditioned chain was built) and
	// figure_speculative_discards_total (speculative results dropped
	// because an acceptance moved their draw).
	Telemetry *telemetry.Registry
	// Parallelism is the number of configuration-sampling workers
	// (≤ 0: GOMAXPROCS); figures are identical at every level.
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
	outcomes, attempted, err := sampleFigure(opts, fig6Accept, fig6Screen, fig6Roster)
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

// fig6Accept is Figure 6's population: the optimal probe is not the
// target and is a viable detector.
func fig6Accept(nc *NetworkConfig) bool { return nc.OptimalDiffersFromTarget() && nc.DetectorViable() }

// fig6Screen rejects a draw in which no flow but the target can be a
// viable detector (core.ProbeNeverViable), so fig6Accept would reject it.
func fig6Screen(p *core.Prior) bool { return p.NoneViable(p.FlowsExcept(p.Target())) }

// fig6Roster pits the naive attacker against the model attacker.
func fig6Roster(nc *NetworkConfig) ([]core.Attacker, error) {
	model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), 1)
	if err != nil {
		return nil, err
	}
	return []core.Attacker{&core.NaiveAttacker{TargetFlow: nc.Target}, model}, nil
}

// sampleFigure is the Figure 6/7 sampling loop. It draws configurations
// cycling the target-absence strata, so the absence axis is populated
// end to end (see AbsenceStrata), and skips those accept rejects. A
// draw that screen rejects once its unconditional chain is evolved is
// skipped without building its target-conditioned chain; screen must
// reject only draws that accept would reject, so the figures do not
// depend on it. Each accepted configuration runs opts.TrialsPerConfig
// trials of the attackers roster builds for it. Sampling stops at opts.Configs
// outcomes or opts.MaxAttempts draws; attempted counts the draws.
//
// The root RNG is one stream of Int63 draws: attempt a forks its
// configuration from draw a+k, where k attempts before it were accepted,
// and an accepted attempt seeds its trials from the draw after its own.
// Up to opts.Parallelism workers (≤ 0: GOMAXPROCS) generate and judge
// the next attempts speculatively, each assuming that no attempt before
// it is accepted. This goroutine commits their results in attempt order
// and runs each accepted configuration's trials, serially. An acceptance
// moves every later attempt's draw on by one, so the results forked from
// the old draws are dropped and those attempts drawn again; the next
// attempts are queued before the trials run, so the workers build
// through them. Speculation runs at most two attempts per worker ahead
// of the oldest uncommitted one, so at most 2·workers−1 builds are
// wasted per accepted configuration; the outcomes are the same at every
// worker count.
func sampleFigure(opts FigureOptions, accept func(*NetworkConfig) bool, screen func(*core.Prior) bool,
	roster func(*NetworkConfig) ([]core.Attacker, error)) (outcomes []ConfigOutcome, attempted int, err error) {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, opts.MaxAttempts)
	// Build times vary between configurations. With one attempt per
	// worker in flight, a worker that finishes early would idle until
	// the oldest attempt commits; a second keeps it busy.
	window := 2 * workers
	builds := core.NewBuilds(opts.Telemetry, false)
	pool := startSamplerPool(workers, window, func(job attemptJob) attemptResult {
		nc, screened, err := generateConfig(opts.Params.WithStratum(job.attempt), nil, stats.NewRNG(job.seed), builds, screen)
		if err != nil || nc == nil || !accept(nc) {
			nc = nil // an unlucky sample (e.g. no eligible target) or outside the population
		}
		return attemptResult{job, nc, screened}
	})
	defer pool.stop()

	rng := stats.NewRNG(opts.Seed)
	var draws []int64 // the root stream, drawn on first use
	draw := func(j int) int64 {
		for len(draws) <= j {
			draws = append(draws, rng.Int63())
		}
		return draws[j]
	}
	next := 0 // the next attempt to queue
	// queue hands the workers the attempts up to the window, forked as if
	// accepted attempts came before them. The window bounds the queue,
	// so this never blocks.
	queue := func(accepted int) {
		for ; next < opts.MaxAttempts && next < attempted+window; next++ {
			j := next + accepted
			pool.jobs <- attemptJob{attempt: next, draw: j, seed: draw(j)}
		}
	}
	attempts := opts.Telemetry.Counter("figure_attempts_total")
	screenedTotal := opts.Telemetry.Counter("figure_screened_total")
	discards := opts.Telemetry.Counter("figure_speculative_discards_total")
	meas := DefaultMeasurement()
	ready := map[int]attemptResult{} // results for uncommitted attempts, forked from their current draws
	for attempted < opts.MaxAttempts && len(outcomes) < opts.Configs {
		queue(len(outcomes))
		r, ok := ready[attempted]
		if !ok {
			r := <-pool.results
			if r.draw == r.attempt+len(outcomes) {
				ready[r.attempt] = r
			} else {
				discards.Inc() // forked before an acceptance moved its draw
			}
			continue
		}
		delete(ready, attempted)
		attempts.Inc()
		if r.screened {
			screenedTotal.Inc()
		}
		if r.nc == nil {
			attempted++
			continue
		}
		// The trials take draw r.draw+1, so every attempt speculated past
		// this one forked from a draw it no longer owns.
		discards.Add(int64(len(ready)))
		clear(ready)
		pool.unqueue()
		attackers, err := roster(r.nc)
		if err != nil {
			return nil, attempted, err
		}
		next = attempted + 1
		if len(outcomes)+1 < opts.Configs {
			queue(len(outcomes) + 1)
		}
		runner := NewTrialRunner(r.nc, attackers, meas, RunnerOptions{Registry: opts.Telemetry})
		results, err := runner.RunTrials(opts.TrialsPerConfig, draw(r.draw+1), 1)
		if err != nil {
			return nil, attempted, err
		}
		out := ConfigOutcome{
			PAbsent:           r.nc.PAbsent(),
			NumCoveringTarget: r.nc.NumCoveringTarget,
			OptimalFlow:       int(r.nc.Optimal.Flow),
			TargetFlow:        int(r.nc.Target),
			Accuracy:          map[string]float64{},
		}
		for _, res := range results {
			out.Accuracy[res.Name] = res.Accuracy()
		}
		outcomes = append(outcomes, out)
		attempted++
	}
	if len(outcomes) == 0 {
		return nil, attempted, fmt.Errorf("experiment: no qualifying configurations in %d attempts", attempted)
	}
	return outcomes, attempted, nil
}

// attemptJob asks a sampling worker for attempt's configuration, forked
// from root draw number draw, whose value is seed.
type attemptJob struct {
	attempt, draw int
	seed          int64
}

// attemptResult is a worker's answer to job: the configuration, or nil
// when it could not be generated or is outside the population, and
// whether the figure's screen rejected it.
type attemptResult struct {
	attemptJob
	nc       *NetworkConfig
	screened bool
}

// samplerPool runs sampling attempts on a fixed set of goroutines. The
// jobs queue holds a window of attempts; results has room for the
// answers to two windows, one forked before an acceptance and one after
// it, so the workers rarely wait on the goroutine that commits them.
type samplerPool struct {
	jobs    chan attemptJob
	results chan attemptResult
	done    chan struct{}
	wg      sync.WaitGroup
}

// startSamplerPool starts workers goroutines that answer jobs with try.
func startSamplerPool(workers, window int, try func(attemptJob) attemptResult) *samplerPool {
	p := &samplerPool{
		jobs:    make(chan attemptJob, window),
		results: make(chan attemptResult, 2*window),
		done:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case job := <-p.jobs:
					select {
					case p.results <- try(job):
					case <-p.done:
						return
					}
				case <-p.done:
					return
				}
			}
		}()
	}
	return p
}

// unqueue drops the jobs no worker has started.
func (p *samplerPool) unqueue() {
	for {
		select {
		case <-p.jobs:
		default:
			return
		}
	}
}

// stop ends the workers and returns once they have exited; a worker
// finishes the attempt it is running first, and its result is dropped.
func (p *samplerPool) stop() {
	p.unqueue()
	close(p.done)
	p.wg.Wait()
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
