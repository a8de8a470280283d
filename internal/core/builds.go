package core

import (
	"time"

	"flowrecon/internal/telemetry"
)

// Builds is the context compact-model builds run in: the model layer's
// instruments, resolved once from a registry, and an optional u-sum
// memo. A model keeps the context it was built with, so its later
// EvolveInPlace and BestSequence calls report where its build did. A nil
// *Builds is valid everywhere: no instruments and no memo.
//
// The instruments are the model_build_ms, evolve_ns and
// sequence_search_ms histograms, the u-sum work counters
// (usum_states_total, usum_sweep_steps_total), the model_build_workers
// gauge and, with a memo, its lookup counters usum_memo_lookups — one
// lookup per model build, not one per state.
//
// They count every build run through the context, including the
// speculative builds that the Figure 6/7 sampler discards when an
// acceptance moves their draw (experiment.RunFig6 and RunFig7 with more
// than one sampling worker). Over a figure run, usum_states_total,
// usum_sweep_steps_total and model_build_ms therefore vary with the
// worker count and with scheduling; the figure itself, and the sampler's
// figure_attempts_total and figure_screened_total, do not. A draw the
// sampler screens out (see ProbeNeverViable) builds and evolves only its
// unconditional chain.
type Builds struct {
	// memo, when set, answers a rebuild of a model the context has built
	// before.
	memo *usumMemo
	// buildMs is the wall time of one compact-model build.
	buildMs *telemetry.Histogram
	// evolveNs is the wall time of one EvolveInPlace call.
	evolveNs *telemetry.Histogram
	// usumExact counts states whose u-sums were evaluated (every state of
	// a build that missed its memo or had none); usumSteps counts the
	// time steps their sweeps took. Both advance once per state, and both
	// are properties of the configuration, not of the build's worker
	// count.
	usumExact *telemetry.Counter
	usumSteps *telemetry.Counter
	// sequenceSearchMs is the wall time of one BestSequence search, the
	// roster's probe-planning layer.
	sequenceSearchMs *telemetry.Histogram
	// buildWorkers is the worker count of the most recent build.
	buildWorkers *telemetry.Gauge
	// memoHits and memoMisses count the memo's lookups.
	memoHits, memoMisses *telemetry.Counter
}

// NewBuilds returns a build context reporting into reg (nil for no
// instruments). With memo, its builds go through a u-sum memo of their
// own, which pays only when an identical model is rebuilt: the one
// holder that rebuilds — a model store that evicts — asks for one, and
// one-shot builders do not.
func NewBuilds(reg *telemetry.Registry, memo bool) *Builds {
	b := &Builds{
		buildMs:          reg.Histogram("model_build_ms", telemetry.MillisecondBuckets()),
		evolveNs:         reg.Histogram("evolve_ns", evolveNsBuckets()),
		usumExact:        reg.Counter("usum_states_total", "method", "exact"),
		usumSteps:        reg.Counter("usum_sweep_steps_total"),
		sequenceSearchMs: reg.Histogram("sequence_search_ms", telemetry.MillisecondBuckets()),
		buildWorkers:     reg.Gauge("model_build_workers"),
	}
	if memo {
		b.memo = newUSumMemo()
		b.memoHits = reg.Counter("usum_memo_lookups", "result", "hit")
		b.memoMisses = reg.Counter("usum_memo_lookups", "result", "miss")
	}
	return b
}

// evolveNsBuckets spans sub-microsecond sparse steps through multi-second
// dense evolutions.
func evolveNsBuckets() []float64 {
	return []float64{
		1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9,
	}
}

// lookup returns the estimate vector memoized under in (whose hash is h),
// counting the lookup. The context must be memoized.
func (b *Builds) lookup(h uint64, in *usumInputs) []StateEstimates {
	est := b.memo.get(h, in)
	if est != nil {
		b.memoHits.Inc()
	} else {
		b.memoMisses.Inc()
	}
	return est
}

// memoized reports whether the context's builds go through a memo.
func (b *Builds) memoized() bool { return b != nil && b.memo != nil }

// obsUSum records one state's u-sum evaluation, a sweep of steps time
// steps.
func (b *Builds) obsUSum(steps int) {
	if b == nil {
		return
	}
	b.usumExact.Inc()
	b.usumSteps.Add(int64(steps))
}

func (b *Builds) obsBuild(ms float64, workers int) {
	if b == nil {
		return
	}
	b.buildMs.Observe(ms)
	b.buildWorkers.Set(int64(workers))
}

// obsSequenceSearch records one BestSequence search that began at start.
func (b *Builds) obsSequenceSearch(start time.Time) {
	if b == nil {
		return
	}
	b.sequenceSearchMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
}

// evolveInstrumented reports whether Evolve timing is being collected,
// letting hot paths skip the clock reads entirely when it is not.
func (b *Builds) evolveInstrumented() bool { return b != nil && b.evolveNs != nil }
