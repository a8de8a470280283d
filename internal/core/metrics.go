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
	// usumMemoHits/Misses count u-sum memo lookups.
	usumMemoHits   *telemetry.Counter
	usumMemoMisses *telemetry.Counter
	// usumExact/usumMC count states whose u-sums were evaluated (memo
	// misses), by method; usumLeaves counts the assignments the exact
	// enumeration visited. All three advance once per state.
	usumExact  *telemetry.Counter
	usumMC     *telemetry.Counter
	usumLeaves *telemetry.Counter
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
// memo hit counters, the u-sum work counters (usum_states_total by
// method, usum_exact_leaves_total) and the model_build_workers gauge all
// land in reg's /debug/vars-style snapshot. Passing nil disables
// instrumentation (the default).
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		coreMetricsPtr.Store(nil)
		return
	}
	coreMetricsPtr.Store(&coreMetrics{
		buildMs:          reg.Histogram("model_build_ms", telemetry.MillisecondBuckets()),
		evolveNs:         reg.Histogram("evolve_ns", evolveNsBuckets()),
		usumMemoHits:     reg.Counter("usum_memo_lookups", "result", "hit"),
		usumMemoMisses:   reg.Counter("usum_memo_lookups", "result", "miss"),
		usumExact:        reg.Counter("usum_states_total", "method", "exact"),
		usumMC:           reg.Counter("usum_states_total", "method", "mc"),
		usumLeaves:       reg.Counter("usum_exact_leaves_total"),
		sequenceSearchMs: reg.Histogram("sequence_search_ms", telemetry.MillisecondBuckets()),
		buildWorkers:     reg.Gauge("model_build_workers"),
	})
}

func obsMemo(hit bool) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	if hit {
		m.usumMemoHits.Inc()
	} else {
		m.usumMemoMisses.Inc()
	}
}

// obsUSum records one state's u-sum evaluation: exact with leaves
// enumerated assignments, or Monte Carlo.
func obsUSum(exact bool, leaves int) {
	m := coreMetricsPtr.Load()
	if m == nil {
		return
	}
	if exact {
		m.usumExact.Inc()
		m.usumLeaves.Add(int64(leaves))
	} else {
		m.usumMC.Inc()
	}
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
