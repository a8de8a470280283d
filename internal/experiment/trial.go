package experiment

import (
	"fmt"
	"math"
	"sync"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/workload"
)

func expNeg(x float64) float64 { return math.Exp(-x) }

// Measurement models the attacker's timing classifier: a probe's observed
// delay is drawn from the hit or miss distribution and thresholded
// (§VI-A: hit ≈ N(0.087, 0.021) ms, miss ≈ N(4.070, 1.806) ms with a
// 1 ms threshold). The floor keeps the miss distribution physically
// non-negative-latency shaped.
type Measurement struct {
	HitMeanMs, HitStdMs   float64
	MissMeanMs, MissStdMs float64
	MissFloorMs           float64
	ThresholdMs           float64
}

// DefaultMeasurement returns the paper-calibrated classifier.
func DefaultMeasurement() Measurement {
	return Measurement{
		HitMeanMs: 0.087, HitStdMs: 0.021,
		MissMeanMs: 4.070, MissStdMs: 1.806,
		MissFloorMs: 1.9, ThresholdMs: 1.0,
	}
}

// ClassifyMs simulates one timing observation of a probe with
// ground-truth outcome hit and returns the attacker's classification and
// the drawn observation (milliseconds) — the quantity the telemetry
// probe-delay histograms record.
func (m Measurement) ClassifyMs(hit bool, rng *stats.RNG) (bool, float64) {
	var ms float64
	if hit {
		ms = rng.Normal(m.HitMeanMs, m.HitStdMs)
		if ms < 0 {
			ms = 0
		}
	} else {
		ms = rng.Normal(m.MissMeanMs, m.MissStdMs)
		if ms < m.MissFloorMs {
			ms = m.MissFloorMs
		}
	}
	return ms < m.ThresholdMs, ms
}

// AttackerResult aggregates one attacker's trial outcomes.
type AttackerResult struct {
	Name     string
	Trials   int
	Correct  int
	TruePos  int
	TrueNeg  int
	FalsePos int
	FalseNeg int
}

// Accuracy returns the paper's metric: (TP + TN) / trials.
func (r AttackerResult) Accuracy() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Trials)
}

// TraceSource generates one traffic window. The default is the paper's
// Poisson traffic; alternative sources (bursty, periodic) measure how the
// attack degrades when the attacker's Poisson model is misspecified.
type TraceSource func(rates []float64, duration float64, rng *stats.RNG) (*workload.Trace, error)

// PoissonSource is the paper's traffic model (§IV-A1).
func PoissonSource(rates []float64, duration float64, rng *stats.RNG) (*workload.Trace, error) {
	return workload.GeneratePoisson(workload.PoissonConfig{Rates: rates, Duration: duration}, rng)
}

// BurstySource returns an ON/OFF Markov-modulated source with the given
// shape (see workload.BurstConfig); the long-run rates match the model's.
func BurstySource(burstFactor, meanOn, meanOff float64) TraceSource {
	return func(rates []float64, duration float64, rng *stats.RNG) (*workload.Trace, error) {
		return workload.GenerateBursty(workload.BurstConfig{
			Rates: rates, Duration: duration,
			BurstFactor: burstFactor, MeanOn: meanOn, MeanOff: meanOff,
		}, rng)
	}
}

// PeriodicSource returns deterministic fixed-interval traffic.
func PeriodicSource(rates []float64, duration float64, rng *stats.RNG) (*workload.Trace, error) {
	return workload.GeneratePeriodic(workload.PoissonConfig{Rates: rates, Duration: duration}, rng)
}

// probeObserver captures per-probe forensics for one attacker within one
// trial: the belief trajectory when the attacker exposes a fitted model,
// one causal span per probe (hung under the attacker span via the ctx
// carrier — the same SpanContext the TCP path marshals onto the wire),
// and one wide event per probe decision when the trial loop collects
// events. Spans, events and belief steps cost one nil check each when
// off.
type probeObserver struct {
	tracker *core.BeliefTracker
	spans   *telemetry.SpanRecorder
	ctx     telemetry.SpanContext
	trial   int
	name    string // attacker name, for wide events
	events  *[]telemetry.WideEvent
	belief  []core.BeliefStep
}

// observe records one probe: ground truth hit, the classified outcome the
// attacker saw, and the drawn delay in milliseconds.
func (o *probeObserver) observe(f flows.ID, hit, classified bool, ms, at float64) {
	if o.spans != nil {
		// Guarded rather than left to the nil recorder: the detail string
		// would be formatted only to be thrown away.
		id, _ := o.spans.StartCtx(o.ctx, "probe", "experiment", at)
		o.spans.Annotate(id, int(f), -1, probeDetail(hit, classified, ms))
		o.spans.End(id, at+ms/1e3)
	}
	if o.events != nil {
		ev := telemetry.NewWideEvent("probe")
		ev.Node = "experiment"
		ev.T = at
		ev.Trial = o.trial
		ev.Attacker = o.name
		ev.Flow = int(f)
		ev.Trace = o.ctx.Trace
		ev.Truth = hitStr(hit)
		ev.Outcome = hitStr(classified)
		ev.DelayMs = ms
		*o.events = append(*o.events, ev)
	}
	if o.tracker != nil {
		o.belief = append(o.belief, o.tracker.Observe(f, classified))
	}
}

// observeLost records a probe that produced no observation: the span is
// annotated as lost, a fault wide event is emitted, and the belief
// tracker (if any) folds in an explicit no-observation step.
func (o *probeObserver) observeLost(f flows.ID, at float64) {
	if o.spans != nil {
		id, _ := o.spans.StartCtx(o.ctx, "probe", "experiment", at)
		o.spans.Annotate(id, int(f), -1, "lost")
		o.spans.End(id, at)
	}
	if o.events != nil {
		ev := telemetry.NewWideEvent("fault.drop")
		ev.Node = "experiment"
		ev.T = at
		ev.Trial = o.trial
		ev.Attacker = o.name
		ev.Flow = int(f)
		ev.Trace = o.ctx.Trace
		ev.Outcome = "lost"
		*o.events = append(*o.events, ev)
	}
	if o.tracker != nil {
		o.belief = append(o.belief, o.tracker.ObserveLost(f))
	}
}

func probeDetail(hit, classified bool, ms float64) string {
	return fmt.Sprintf("truth=%s classified=%s delay=%.3fms", hitStr(hit), hitStr(classified), ms)
}

func hitStr(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// trialScratch is the reusable working state of one trial: its random
// and fault streams, the replayed traffic window and the tables the
// window is replayed into. Trials take one from scratchPool and return
// it when done, so a warm worker replays each window into storage
// earlier trials grew instead of allocating tables, streams and buffers
// afresh. Nothing a trial returns may alias it.
type trialScratch struct {
	rng      stats.RNG
	flt      faults.Stream
	arrivals []workload.Arrival
	hits     []bool // hits[i]: arrivals[i]'s replay lookup hit the table
	// base holds the table state the window leaves; replica is the copy
	// of it that the current attacker probes.
	base, replica flowtable.Table
}

var scratchPool = sync.Pool{New: func() any { return new(trialScratch) }}

// detectorPool recycles the per-trial detector replicas consumers hand
// back with TrialResult.ReleaseDetectors; TrialRunner.Run resets each one
// it takes for the runner's config.
var detectorPool = sync.Pool{New: func() any { return new(detect.Detector) }}

// replay runs the traffic window through sc.base, freshly reset to nc's
// switch, recording each arrival's lookup outcome in sc.hits: a miss
// installs the highest-priority covering rule, as the switch's controller
// would. The table feeds tm (zero = off), so replay installs and
// evictions are observable. The replay draws no randomness, so one run
// serves every attacker of a trial.
func (sc *trialScratch) replay(nc *NetworkConfig, trace *workload.Trace, tm flowtable.Metrics) error {
	tbl := &sc.base
	if err := tbl.Reset(nc.Rules, nc.Params.CacheSize, nc.Params.Delta); err != nil {
		return fmt.Errorf("trial table: %w", err)
	}
	tbl.SetMetrics(tm)
	sc.arrivals = trace.AppendArrivals(sc.arrivals[:0])
	sc.hits = sc.hits[:0]
	for _, a := range sc.arrivals {
		sc.hits = append(sc.hits, tbl.Packet(a.Flow, a.Time))
	}
	return nil
}

// observeReplay feeds det the replay's lookups, in arrival order — the
// benign background the anomaly baselines are scored against. The
// detector never touches the table, so observing after the replay is the
// same as observing during it.
func (sc *trialScratch) observeReplay(det *detect.Detector) {
	if det == nil {
		return
	}
	for i, a := range sc.arrivals {
		det.Observe(int(a.Flow), a.Time, math.NaN(), sc.hits[i])
	}
}

// paceGap draws one inter-probe gap from the stealth schedule. The draw
// happens only for enabled pacing, so unpaced attackers consume exactly
// the RNG sequence they always did (recordings stay byte-identical).
func paceGap(pace core.Pacing, rng *stats.RNG) float64 {
	if !pace.Enabled() {
		return 0
	}
	gap := pace.IntervalSec
	if pace.JitterFrac > 0 {
		gap += rng.Float64() * pace.JitterFrac * pace.IntervalSec
	}
	return gap
}

// probeTable sends the attacker's probes at the attack time, mutating the
// table exactly as real probes would (a miss installs the covering rule; a
// hit refreshes it), and classifies each observation through the timing
// channel. The drawn delay of every probe feeds the experiment histograms
// via tm (nil-safe instruments).
//
// With a fault stream attached, each probe may be lost before reaching
// the table (no lookup, no install, no classifier draw — outcomes[i]
// reads miss and lost[i] is set) and delivered probes suffer jitter on
// the observed delay, which can push a hit past the classifier
// threshold. lost is non-nil exactly when flt is non-nil, so fault-free
// runs consume identical RNG draws and serialize identically.
//
// A non-nil detector observes every delivered probe's lookup and drawn
// delay (a lost probe never reached the fabric and is invisible to the
// defender). With stealth pacing enabled, probe i fires at the attack
// time plus i accumulated pace gaps instead of back-to-back at a single
// instant; the pacing jitter draws come from the trial RNG but only for
// paced attackers, so every existing schedule is byte-unchanged.
func probeTable(tbl *flowtable.Table, probes []flows.ID, at float64, meas Measurement, rng *stats.RNG, flt *faults.Stream, tm *trialMetrics, obs *probeObserver, det *detect.Detector, pace core.Pacing) (outcomes, lost []bool) {
	outcomes = make([]bool, len(probes))
	if flt != nil {
		lost = make([]bool, len(probes))
	}
	t := at
	for i, f := range probes {
		if i > 0 {
			t += paceGap(pace, rng)
		}
		if flt != nil && flt.Drop() {
			lost[i] = true
			tm.observeProbeLost()
			obs.observeLost(f, t)
			continue
		}
		hit := tbl.Packet(f, t)
		verdict, ms := meas.ClassifyMs(hit, rng)
		if flt != nil {
			if j := flt.JitterMs(); j > 0 {
				ms += j
				verdict = ms < meas.ThresholdMs
			}
		}
		det.Observe(int(f), t, ms, hit)
		tm.observeProbe(hit, ms)
		obs.observe(f, hit, verdict, ms, t)
		outcomes[i] = verdict
	}
	return outcomes, lost
}

func score(r *AttackerResult, verdict, truth bool) {
	r.Trials++
	switch {
	case verdict && truth:
		r.Correct++
		r.TruePos++
	case !verdict && !truth:
		r.Correct++
		r.TrueNeg++
	case verdict && !truth:
		r.FalsePos++
	default:
		r.FalseNeg++
	}
}
