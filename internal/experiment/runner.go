package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
	"flowrecon/internal/workload"
)

// TrialRunner is the trial executor: one network configuration, one
// attacker roster, and everything a trial needs resolved once. Run
// executes a single trial; RunTrials drives a whole run over Run and
// hands each result to its consumers in trial order. The flowrecond
// scheduler calls Run directly, interleaving trials from many sessions
// on one worker pool.
//
// A runner is immutable after construction and safe for concurrent Run
// calls: every trial draws all of its randomness from the seed it is
// given, so a (runner, trial, seed) triple produces the same result on
// any goroutine in any order.
type TrialRunner struct {
	nc        *NetworkConfig
	attackers []core.Attacker
	names     []string
	meas      Measurement
	source    TraceSource
	reg       *telemetry.Registry
	tm        trialMetrics
	tableTM   flowtable.Metrics // trial tables' instruments, resolved once
	faults    faults.Profile
	faultCtr  faults.Counters // fault streams' counters, resolved once
	horizon   float64
	detect    *detect.Config
	record    bool // keep arrivals, belief steps and the span tree
	events    bool // buffer the trial's wide events
}

// RunnerOptions configures a TrialRunner. The zero value is the paper's
// setting: Poisson traffic, no telemetry, no faults, no detection.
type RunnerOptions struct {
	// Source generates each trial's traffic window (PoissonSource when
	// nil).
	Source TraceSource
	// Registry receives the experiment metrics (trial, probe and truth
	// counters, probe-delay histograms, the trial tables' flowtable
	// metrics; RunTrials adds per-attacker verdict counters). Nil
	// disables them.
	Registry *telemetry.Registry
	// Faults injects probe-level faults: each probe is independently
	// lost with probability LossProb (it never reaches the table — no
	// install side effect, no observation) and a delivered probe's
	// observed delay is inflated by exponential jitter with mean
	// JitterMeanMs (which can push a hit past the classifier threshold).
	// Transport-level knobs (resets, stalls, slowdown) have no meaning at
	// this abstraction and are ignored. All fault randomness comes from
	// streams derived from Faults.Seed and the trial index — never from
	// the trial RNG — so the zero profile leaves every draw, verdict and
	// recording byte-identical to a fault-free run, and a faulty run is
	// reproducible from (trial seed, Faults) alone at any parallelism.
	Faults faults.Profile
	// Detect attaches a fresh streaming anomaly detector to every
	// (trial, attacker) table replica: it observes each replay lookup
	// (the benign background) and each delivered probe. The detectors
	// come back in TrialResult.Detectors, in roster order, for callers
	// that fold them into an aggregate defender view, and belong to the
	// caller until it hands them back with TrialResult.ReleaseDetectors;
	// later trials then restart them instead of allocating new ones. Nil
	// disables detection.
	Detect *detect.Config
	// Record keeps each trial's forensics for a trialrec recording: the
	// traffic window, belief steps, and the trial's causal span tree
	// (deterministic: no wall clock).
	Record bool
	// Events buffers each trial's wide events — one per probe decision,
	// per verdict, per injected probe fault, and per detector flag — in
	// TrialResult.Events, in the order the trial emitted them.
	Events bool
}

// TrialResult is one trial's outcome.
type TrialResult struct {
	Trial int
	// Truth is whether the target flow actually occurred in the window.
	Truth bool
	// Attackers holds each attacker's probes, outcomes, loss mask and
	// verdict (plus belief steps under Record), index-aligned with the
	// roster given to NewTrialRunner.
	Attackers []trialrec.AttackerTrial
	// Detectors are the per-attacker detector replicas (Detect only), in
	// roster order. They are the consumer's until ReleaseDetectors hands
	// them back for reuse; a consumer that never releases them stays
	// correct and only allocates.
	Detectors []*detect.Detector
	// Arrivals is the trial's traffic window (Record only).
	Arrivals []workload.Arrival
	// Spans is the trial's causal span tree (Record only); span and
	// trace IDs are local to the trial.
	Spans []telemetry.Span
	// Events are the trial's wide events (Events only).
	Events []telemetry.WideEvent
}

// ReleaseDetectors hands the trial's detectors back for reuse by later
// trials and clears res.Detectors. Call it once every reader of the
// detectors is done (typically right after merging them into an
// aggregate, which copies what it keeps): a released detector is reset
// and observed again by another trial.
func (res *TrialResult) ReleaseDetectors() {
	for _, d := range res.Detectors {
		detectorPool.Put(d)
	}
	res.Detectors = nil
}

// NewTrialRunner builds a reusable trial executor for one configuration
// and attacker roster. The roster is shared across every Run call
// (attackers are stateless across trials), so build it once per model.
// Every instrument the trials feed — experiment metrics, trial-table
// metrics, fault counters — is resolved here, once.
func NewTrialRunner(nc *NetworkConfig, attackers []core.Attacker, meas Measurement, opts RunnerOptions) *TrialRunner {
	source := opts.Source
	if source == nil {
		source = PoissonSource
	}
	r := &TrialRunner{
		nc:        nc,
		attackers: attackers,
		names:     make([]string, len(attackers)),
		meas:      meas,
		source:    source,
		reg:       opts.Registry,
		tm:        newTrialMetrics(opts.Registry),
		tableTM:   flowtable.NewMetrics(opts.Registry, "trial"),
		faults:    opts.Faults,
		horizon:   float64(nc.Params.Steps()) * nc.Params.Delta,
		detect:    opts.Detect,
		record:    opts.Record,
		events:    opts.Events,
	}
	if opts.Faults.Enabled() { // fault-free runs register no fault series
		r.faultCtr = faults.NewCounters(opts.Registry, "experiment")
	}
	for i, a := range attackers {
		r.names[i] = a.Name()
	}
	return r
}

// Names returns the roster's attacker names in order.
func (r *TrialRunner) Names() []string { return r.names }

// Horizon returns the trial window length in seconds.
func (r *TrialRunner) Horizon() float64 { return r.horizon }

// Run executes one complete trial from its seed: generate the traffic
// window, replay it once, and let every attacker probe its own copy of
// the table state the replay left (probes install rules and refresh
// timers, so attackers cannot share one table) and decide. Every random
// draw — the traffic window, probe classification noise, random
// verdicts — comes from the trial's own stream, seeded with seed, and
// fault draws come from a stream derived from (Faults.Seed, trial)
// alone, so trials are independent, safe to run concurrently, and
// identical at every parallelism level. The random and fault streams,
// the window and the tables live in a pooled trialScratch; nothing in
// the returned result aliases it.
func (r *TrialRunner) Run(trial int, seed int64) (TrialResult, error) {
	out := TrialResult{Trial: trial}
	sc := scratchPool.Get().(*trialScratch)
	defer scratchPool.Put(sc)
	rng := &sc.rng
	rng.Reseed(seed)
	flt := r.faults.StreamInto(&sc.flt, int64(trial))
	flt.SetCounters(r.faultCtr)
	trace, err := r.source(r.nc.Rates, r.horizon, rng)
	if err != nil {
		return TrialResult{}, err
	}
	out.Truth = trace.OccurredWithin(r.nc.Target, r.horizon, r.horizon)
	if out.Truth {
		r.tm.truthTrue.Inc()
	} else {
		r.tm.truthFalse.Inc()
	}

	var spans *telemetry.SpanRecorder
	var traceID int64
	var trialSpan telemetry.SpanID
	if r.record {
		spans = telemetry.NewSpanRecorder(0)
		spans.SetWallClock(nil) // recordings must be pure functions of the seeds
		traceID = spans.NewTrace()
		trialSpan = spans.Start(traceID, 0, "trial", "experiment", 0)
		if out.Truth {
			spans.Annotate(trialSpan, int(r.nc.Target), -1, "truth=present")
		} else {
			spans.Annotate(trialSpan, int(r.nc.Target), -1, "truth=absent")
		}
		out.Arrivals = trace.Arrivals()
	}

	if err := sc.replay(r.nc, trace, r.tableTM); err != nil {
		return TrialResult{}, err
	}
	tbl := &sc.replica
	tbl.SetMetrics(r.tableTM)

	out.Attackers = make([]trialrec.AttackerTrial, 0, len(r.attackers))
	if r.detect != nil {
		out.Detectors = make([]*detect.Detector, 0, len(r.attackers))
	}
	for i, a := range r.attackers {
		obs := &probeObserver{trial: trial, name: r.names[i]}
		var attSpan telemetry.SpanID
		if r.record {
			attSpan, obs.ctx = spans.StartCtx(spans.Context(traceID, trialSpan), "attacker", r.names[i], 0)
			obs.spans = spans
			if bp, ok := a.(core.BeliefProvider); ok {
				obs.tracker = bp.Selector().NewBeliefTracker()
			}
		}
		if r.events {
			obs.events = &out.Events
		}
		var det *detect.Detector
		if r.detect != nil {
			det = detectorPool.Get().(*detect.Detector)
			det.Reset(*r.detect)
			if r.events {
				name := r.names[i]
				det.OnFlag(func(v detect.Verdict) {
					ev := telemetry.NewWideEvent("detect.flag")
					ev.Node = "detect"
					ev.T = v.T
					ev.Trial = trial
					ev.Attacker = name
					ev.Flow = v.Source
					ev.Outcome = v.Reason
					ev.Detail = fmt.Sprintf("score=%.2f obs=%d", v.Score, v.Obs)
					out.Events = append(out.Events, ev)
				})
			}
			out.Detectors = append(out.Detectors, det)
		}
		var pace core.Pacing
		if p, ok := a.(core.Paced); ok {
			pace = p.ProbePacing()
		}
		replaySpan := spans.Start(traceID, attSpan, "replay", "experiment", 0)
		tbl.CopyCacheFrom(&sc.base)
		sc.observeReplay(det)
		spans.End(replaySpan, r.horizon)
		probes := a.Probes()
		outcomes, lost := probeTable(tbl, probes, r.horizon, r.meas, rng, flt, &r.tm, obs, det, pace)
		var verdict bool
		if lt, ok := a.(core.LossTolerant); ok && anyLost(lost) {
			verdict = lt.DecideWithLoss(outcomes, lost, rng)
		} else {
			// Lost probes fall back to their miss classification for
			// attackers that cannot represent "no observation".
			verdict = a.Decide(outcomes, rng)
		}
		if r.events {
			ev := telemetry.NewWideEvent("trial.verdict")
			ev.Node = "experiment"
			ev.T = r.horizon
			ev.Trial = trial
			ev.Attacker = r.names[i]
			ev.Trace = traceID
			ev.Verdict = presenceStr(verdict)
			ev.Truth = presenceStr(out.Truth)
			if verdict == out.Truth {
				ev.Outcome = "correct"
			} else {
				ev.Outcome = "wrong"
			}
			out.Events = append(out.Events, ev)
		}
		if r.record {
			decSpan := spans.Start(traceID, attSpan, "decision", r.names[i], r.horizon)
			spans.Annotate(decSpan, -1, -1, decisionDetail(verdict, out.Truth))
			spans.End(decSpan, r.horizon)
			spans.End(attSpan, r.horizon)
		}
		out.Attackers = append(out.Attackers, trialrec.AttackerTrial{
			Name:     r.names[i],
			Probes:   probes,
			Outcomes: outcomes,
			Lost:     lost,
			Verdict:  verdict,
			Belief:   obs.belief,
		})
	}
	r.tm.trials.Inc()
	if r.record {
		spans.End(trialSpan, r.horizon)
		out.Spans = spans.Drain()
	}
	return out, nil
}

// TrialSeeds derives the per-trial seed vector of a run rooted at seed:
// trial t always runs on the t-th draw of the root stream, whatever
// order trials execute in.
func TrialSeeds(seed int64, trials int) []int64 {
	rng := stats.NewRNG(seed)
	seeds := make([]int64, trials)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	return seeds
}

// RunTrials runs trials 0..trials-1, seeded by TrialSeeds(seed, trials),
// scores every verdict against the trial's ground truth, and hands each
// TrialResult to every consumer in trial order. Trials run inline when
// workers ≤ 1 and on a pool of workers goroutines otherwise; since each
// trial draws only from its own seed and results are delivered in trial
// order, every worker count produces identical AttackerResults and
// consumer streams. The consumers run on the calling goroutine, behind
// the workers, so an event log or recording fills while the run is still
// going. The first failed trial or consumer error stops the run: no
// further trial is started and the error is returned.
//
// With a Registry, each attacker's confusion-matrix counters
// (experiment_verdicts_total) advance the moment a trial finishes — out
// of trial order on a pool, which the commutative counters allow — so a
// live view of a parallel run moves during the run.
func (r *TrialRunner) RunTrials(trials int, seed int64, workers int, consumers ...func(TrialResult) error) ([]AttackerResult, error) {
	verdicts := make([][4]*telemetry.Counter, len(r.attackers))
	results := make([]AttackerResult, len(r.attackers))
	for i, name := range r.names {
		results[i].Name = name
		verdicts[i] = verdictCounters(r.reg, name)
	}
	count := func(res TrialResult) {
		for i, at := range res.Attackers {
			countVerdict(verdicts[i], at.Verdict, res.Truth)
		}
	}
	deliver := func(res TrialResult) error {
		for i, at := range res.Attackers {
			score(&results[i], at.Verdict, res.Truth)
		}
		for _, c := range consumers {
			if err := c(res); err != nil {
				return err
			}
		}
		return nil
	}

	seeds := TrialSeeds(seed, trials)
	workers = min(workers, trials)
	if workers <= 1 {
		for t, s := range seeds {
			res, err := r.Run(t, s)
			if err != nil {
				return nil, err
			}
			count(res)
			if err := deliver(res); err != nil {
				return nil, err
			}
		}
		return results, nil
	}

	busy := r.reg.Gauge("experiment_trial_workers_busy")
	r.reg.Gauge("experiment_trial_workers").Set(int64(workers))
	fr := NewFrontier(trials)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fr.Err() == nil {
				t := int(next.Add(1)) - 1
				if t >= trials {
					return
				}
				busy.Add(1)
				res, err := r.Run(t, seeds[t])
				if err == nil {
					count(res)
				}
				busy.Add(-1)
				fr.Post(t, res, err)
			}
		}()
	}
	defer wg.Wait()
	for {
		res, ok, err := fr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return results, nil
		}
		if err := deliver(res); err != nil {
			fr.Fail(err)
			return nil, err
		}
	}
}

// RecordTrials returns the consumer that writes each trial to rec: its
// traffic window, each attacker's probes, outcomes, verdict and belief
// steps, and its span tree, renumbered into one run-wide ID space. The
// runner must have been built with Record.
func RecordTrials(rec *trialrec.Recorder) func(TrialResult) error {
	spans := telemetry.NewSpanRecorder(0)
	return func(res TrialResult) error {
		spans.Import(res.Spans)
		rec.BeginTrial(res.Trial, res.Truth, res.Arrivals)
		for _, at := range res.Attackers {
			rec.Attacker(at)
		}
		rec.Spans(spans.Drain())
		return rec.EndTrial()
	}
}

// anyLost reports whether the loss mask marks any probe lost (nil — the
// fault-free case — never does).
func anyLost(lost []bool) bool {
	for _, l := range lost {
		if l {
			return true
		}
	}
	return false
}

func decisionDetail(verdict, truth bool) string {
	v := presenceStr(verdict)
	if verdict == truth {
		return "verdict=" + v + " correct"
	}
	return "verdict=" + v + " wrong"
}

func presenceStr(present bool) string {
	if present {
		return "present"
	}
	return "absent"
}
