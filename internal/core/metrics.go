package core

import (
	"sync/atomic"
	"time"

	"flowrecon/internal/telemetry"
)

// coreMetrics bundles the instruments the model layer reports into.
// Instrumentation is opt-in via SetTelemetry; the nil default costs one
// atomic pointer load per observation site.
type coreMetrics struct {
	// buildMs is the wall time of one compact-model build (histogram
	// "model_build_ms").
	buildMs *telemetry.Histogram
	// evolveNs is the wall time of one Evolve call (histogram
	// "evolve_ns").
	evolveNs *telemetry.Histogram
	// usumExact counts states whose u-sums were evaluated (every state of
	// a build that missed its memo or had none); usumSteps counts the
	// time steps their sweeps took. Both advance once per state, and both
	// are properties of the configuration, not of the build's worker
	// count.
	usumExact *telemetry.Counter
	usumSteps *telemetry.Counter
	// sequenceSearchMs is the wall time of one BestSequence search
	// (histogram "sequence_search_ms"), the roster's probe-planning layer.
	sequenceSearchMs *telemetry.Histogram
	// buildWorkers is the worker count of the most recent parallel
	// model build (gauge "model_build_workers").
	buildWorkers *telemetry.Gauge
}

var coreMetricsPtr atomic.Pointer[coreMetrics]

// evolveNsBuckets spans sub-microsecond sparse steps through multi-second
// dense evolutions.
func evolveNsBuckets() []float64 {
	return []float64{
		1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9,
	}
}

// SetTelemetry points the model layer's instrumentation at reg: the
// model_build_ms, evolve_ns and sequence_search_ms histograms, the u-sum
// work counters (usum_states_total, usum_sweep_steps_total) and the
// model_build_workers gauge all land in reg's /debug/vars-style
// snapshot. Passing nil disables instrumentation (the default). The
// u-sum memo's lookup counters are the memo's own (USumMemo.SetTelemetry):
// a lookup is one per model build, not one per state.
//
// They count every build the process runs, including the speculative
// builds that the Figure 6/7 sampler discards when an acceptance moves
// their draw (experiment.RunFig6 and RunFig7 with more than one sampling
// worker). Over a figure run, usum_states_total, usum_sweep_steps_total
// and model_build_ms therefore vary with the worker count and with
// scheduling; the figure itself, and the sampler's
// figure_attempts_total, do not.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		coreMetricsPtr.Store(nil)
		return
	}
	coreMetricsPtr.Store(&coreMetrics{
		buildMs:          reg.Histogram("model_build_ms", telemetry.MillisecondBuckets()),
		evolveNs:         reg.Histogram("evolve_ns", evolveNsBuckets()),
		usumExact:        reg.Counter("usum_states_total", "method", "exact"),
		usumSteps:        reg.Counter("usum_sweep_steps_total"),
		sequenceSearchMs: reg.Histogram("sequence_search_ms", telemetry.MillisecondBuckets()),
		buildWorkers:     reg.Gauge("model_build_workers"),
	})
}

// obsUSum records one state's u-sum evaluation, a sweep of steps time
// steps.
func obsUSum(steps int) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	m.usumExact.Inc()
	m.usumSteps.Add(int64(steps))
}

func obsBuild(ms float64, workers int) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	m.buildMs.Observe(ms)
	m.buildWorkers.Set(int64(workers))
}

// obsSequenceSearch records one BestSequence search that began at start.
func obsSequenceSearch(start time.Time) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	m.sequenceSearchMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
}

func obsEvolve(ns float64) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	m.evolveNs.Observe(ns)
}

// evolveInstrumented reports whether Evolve timing is being collected,
// letting hot paths skip the clock reads entirely when it is not.
func evolveInstrumented() bool {
	m := coreMetricsPtr.Load()
	return m != nil
}
