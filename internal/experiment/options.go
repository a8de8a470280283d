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

// TrialOptions configures the fully-observable trial loop. The zero value
// reproduces RunTrials exactly: Poisson traffic, no telemetry, no
// recording, no spans, serial execution.
type TrialOptions struct {
	// Source generates each trial's traffic window (PoissonSource when
	// nil).
	Source TraceSource
	// Registry receives the experiment metrics; nil disables them.
	Registry *telemetry.Registry
	// PerTrial, with a Registry, returns a cumulative registry snapshot
	// per trial. Snapshots are order-sensitive, so PerTrial forces serial
	// execution regardless of Parallelism.
	PerTrial bool
	// Recorder streams the forensic trial recording (traffic window,
	// per-attacker probes/outcomes/verdicts/belief steps, spans). Nil
	// disables recording at zero per-probe cost.
	Recorder *trialrec.Recorder
	// Spans collects the causal span tree of each trial. When nil and a
	// Recorder is set, an internal deterministic recorder is used so
	// recordings always carry spans and stay byte-reproducible. When both
	// are set, spans are drained into the recording each trial rather
	// than accumulating here.
	Spans *telemetry.SpanRecorder
	// Faults injects probe-level faults into the trial loop: each probe
	// is independently lost with probability LossProb (it never reaches
	// the table — no install side effect, no observation) and a delivered
	// probe's observed delay is inflated by exponential jitter with mean
	// JitterMeanMs (which can push a hit past the classifier threshold).
	// Transport-level knobs (resets, stalls, slowdown) have no meaning at
	// this abstraction and are ignored. All fault randomness comes from
	// streams derived from Faults.Seed and the trial index — never from
	// the trial RNG — so the zero profile leaves every draw, verdict and
	// recording byte-identical to a fault-free run, and a faulty run is
	// reproducible from (TrialSeed, Faults) alone at any parallelism.
	Faults faults.Profile
	// Events receives one wide event per probe decision, per trial
	// verdict, and per injected probe fault. Workers buffer their trial's
	// events locally and the collector appends them in trial order, so
	// (with the log's wall clock disabled) the event stream is
	// byte-identical at every parallelism level. Nil disables events at
	// zero per-probe cost.
	Events *telemetry.EventLog
	// Detect attaches a fresh streaming anomaly detector to the
	// controller path of every (trial, attacker) table replica: it
	// observes each replay lookup (the benign background) and each
	// delivered probe, and its flag verdicts become "detect.flag" wide
	// events buffered with the trial's other events — so verdict streams
	// ride the same in-order assembly and stay byte-identical at every
	// parallelism level. Nil disables detection entirely.
	Detect *detect.Config
	// DetectAggregate, with Detect set, receives every trial detector
	// merged in strict (trial, attacker) order during assembly — the
	// defender's whole-run view served at /debug/detect. Nil skips the
	// merge (and the per-trial detector retention it requires).
	DetectAggregate *detect.Detector
	// Parallelism is the number of worker goroutines running trials
	// concurrently; values ≤ 1 run serially. Every trial draws all of its
	// randomness (traffic, probe noise, random verdicts) from a per-trial
	// RNG forked from the root rng in trial order, and results and
	// recordings are assembled in trial order, so every parallelism level
	// produces identical AttackerResults and byte-identical recordings.
	Parallelism int
}

// trialEnv is the per-run invariant state shared by every trial.
type trialEnv struct {
	nc        *NetworkConfig
	attackers []core.Attacker
	names     []string
	meas      Measurement
	source    TraceSource
	tm        trialMetrics
	tableTM   flowtable.Metrics // trial tables' instruments, resolved once
	faults    faults.Profile
	faultCtr  faults.Counters // fault streams' counters, resolved once
	horizon   float64
	observing bool // collect spans (and belief/probe forensics)
	recording bool // also keep arrivals + attacker trials for the recorder
	probing   bool // keep per-attacker probes/outcomes without span/belief cost
	eventing  bool // buffer wide events per trial for in-order assembly
	noWall    bool // zero wall-clock in trial spans (deterministic output)
	detect    *detect.Config
	detAgg    bool // retain per-trial detectors for the aggregate merge
}

// newTrialEnv builds the run-invariant trial state in its plain mode
// (no spans, recording, probing, events or detection; callers set those)
// and resolves every instrument the trials feed — experiment metrics,
// trial-table metrics, fault counters — once for the whole run.
func newTrialEnv(nc *NetworkConfig, attackers []core.Attacker, meas Measurement, source TraceSource, reg *telemetry.Registry, flt faults.Profile) *trialEnv {
	if source == nil {
		source = PoissonSource
	}
	env := &trialEnv{
		nc:        nc,
		attackers: attackers,
		names:     make([]string, len(attackers)),
		meas:      meas,
		source:    source,
		tm:        newTrialMetrics(reg),
		tableTM:   flowtable.NewMetrics(reg, "trial"),
		faults:    flt,
		horizon:   float64(nc.Params.Steps()) * nc.Params.Delta,
	}
	if flt.Enabled() { // fault-free runs register no fault series
		env.faultCtr = faults.NewCounters(reg, "experiment")
	}
	for i, a := range attackers {
		env.names[i] = a.Name()
	}
	return env
}

// trialOut is everything one trial produces, in a form that can be
// assembled into results/recordings strictly in trial order regardless of
// completion order.
type trialOut struct {
	truth    bool
	verdicts []bool
	arrivals []workload.Arrival       // recording only
	atts     []trialrec.AttackerTrial // recording only
	spans    []telemetry.Span         // observing only; IDs/traces local to the trial
	events   []telemetry.WideEvent    // eventing only; appended in trial order
	dets     []*detect.Detector       // detAgg only; merged in trial order
	err      error
}

// runTrial executes one complete trial: generate the traffic window,
// replay it once, and let every attacker probe its own copy of the table
// state the replay left (probes install rules and refresh timers, so
// attackers cannot share one table) and decide. Every random draw — the
// traffic window, probe classification noise, random verdicts — comes
// from the trial's own stream, seeded with seed, and fault draws come
// from a stream derived from (Faults.Seed, trial index) alone, so trials
// are independent, safe to run concurrently, and identical at every
// parallelism level. The stream, the window and the tables live in a
// pooled trialScratch; nothing in the returned trialOut aliases it.
func (env *trialEnv) runTrial(trial int, seed int64) trialOut {
	var out trialOut
	sc := scratchPool.Get().(*trialScratch)
	defer scratchPool.Put(sc)
	rng := &sc.rng
	rng.Reseed(seed)
	flt := env.faults.Stream(int64(trial))
	flt.SetCounters(env.faultCtr)
	trace, err := env.source(env.nc.Rates, env.horizon, rng)
	if err != nil {
		out.err = err
		return out
	}
	out.truth = trace.OccurredWithin(env.nc.Target, env.horizon, env.horizon)
	if out.truth {
		env.tm.truthTrue.Inc()
	} else {
		env.tm.truthFalse.Inc()
	}

	var spans *telemetry.SpanRecorder
	var traceID int64
	var trialSpan telemetry.SpanID
	if env.observing {
		spans = telemetry.NewSpanRecorder(0)
		if env.noWall {
			spans.SetWallClock(nil)
		}
		traceID = spans.NewTrace()
		trialSpan = spans.Start(traceID, 0, "trial", "experiment", 0)
		if out.truth {
			spans.Annotate(trialSpan, int(env.nc.Target), -1, "truth=present")
		} else {
			spans.Annotate(trialSpan, int(env.nc.Target), -1, "truth=absent")
		}
	}
	if env.recording {
		out.arrivals = trace.Arrivals()
		out.atts = make([]trialrec.AttackerTrial, 0, len(env.attackers))
	}

	if err := sc.replay(env.nc, trace, env.tableTM); err != nil {
		out.err = err
		return out
	}
	tbl := &sc.replica
	tbl.SetMetrics(env.tableTM)

	out.verdicts = make([]bool, len(env.attackers))
	if env.detAgg {
		out.dets = make([]*detect.Detector, 0, len(env.attackers))
	}
	for i, a := range env.attackers {
		var obs *probeObserver
		var attSpan telemetry.SpanID
		var attCtx telemetry.SpanContext
		if env.observing {
			attSpan, attCtx = spans.StartCtx(spans.Context(traceID, trialSpan), "attacker", env.names[i], 0)
		}
		var det *detect.Detector
		if env.detect != nil {
			det = detect.New(*env.detect)
			if env.eventing {
				name := env.names[i]
				det.OnFlag(func(v detect.Verdict) {
					ev := telemetry.NewWideEvent("detect.flag")
					ev.Node = "detect"
					ev.T = v.T
					ev.Trial = trial
					ev.Attacker = name
					ev.Flow = v.Source
					ev.Outcome = v.Reason
					ev.Detail = fmt.Sprintf("score=%.2f obs=%d", v.Score, v.Obs)
					out.events = append(out.events, ev)
				})
			}
		}
		var pace core.Pacing
		if p, ok := a.(core.Paced); ok {
			pace = p.ProbePacing()
		}
		if env.observing || env.eventing || env.probing {
			obs = &probeObserver{spans: spans, ctx: attCtx, trial: trial, name: env.names[i]}
			if env.eventing {
				obs.events = &out.events
			}
			if env.observing {
				if bp, ok := a.(core.BeliefProvider); ok {
					obs.tracker = bp.Selector().NewBeliefTracker()
				}
			}
		}
		replaySpan := spans.Start(traceID, attSpan, "replay", "experiment", 0)
		tbl.CopyCacheFrom(&sc.base)
		sc.observeReplay(det)
		spans.End(replaySpan, env.horizon)
		var outcomes, lost []bool
		if seq, ok := a.(SequentialAttacker); ok {
			outcomes, lost = probeSequential(env.nc, tbl, seq, env.horizon, env.meas, rng, flt, &env.tm, obs, det, pace)
		} else {
			outcomes, lost = probeTable(env.nc, tbl, a.Probes(), env.horizon, env.meas, rng, flt, &env.tm, obs, det, pace)
		}
		var verdict bool
		if lt, ok := a.(core.LossTolerant); ok && anyLost(lost) {
			verdict = lt.DecideWithLoss(outcomes, lost, rng)
		} else {
			// Lost probes fall back to their miss classification for
			// attackers that cannot represent "no observation".
			verdict = a.Decide(outcomes, rng)
		}
		out.verdicts[i] = verdict
		if env.detAgg {
			out.dets = append(out.dets, det)
		}
		if env.eventing {
			ev := telemetry.NewWideEvent("trial.verdict")
			ev.Node = "experiment"
			ev.T = env.horizon
			ev.Trial = trial
			ev.Attacker = env.names[i]
			ev.Trace = traceID
			ev.Verdict = presenceStr(verdict)
			ev.Truth = presenceStr(out.truth)
			if verdict == out.truth {
				ev.Outcome = "correct"
			} else {
				ev.Outcome = "wrong"
			}
			out.events = append(out.events, ev)
		}
		if env.observing {
			decSpan := spans.Start(traceID, attSpan, "decision", env.names[i], env.horizon)
			spans.Annotate(decSpan, -1, -1, decisionDetail(verdict, out.truth))
			spans.End(decSpan, env.horizon)
			spans.End(attSpan, env.horizon)
			if env.recording {
				out.atts = append(out.atts, trialrec.AttackerTrial{
					Name:     env.names[i],
					Probes:   obs.probes,
					Outcomes: outcomes,
					Lost:     lost,
					Verdict:  verdict,
					Belief:   obs.belief,
				})
			}
		} else if env.probing {
			// The forensics-light path keeps probe/outcome streams (what a
			// service session streams to its client) without span trees or
			// belief tracking.
			out.atts = append(out.atts, trialrec.AttackerTrial{
				Name:     env.names[i],
				Probes:   obs.probes,
				Outcomes: outcomes,
				Lost:     lost,
				Verdict:  verdict,
			})
		}
	}
	env.tm.trials.Inc()
	if env.observing {
		spans.End(trialSpan, env.horizon)
		out.spans = spans.Drain()
	}
	return out
}

// RunTrialsOpts is the trial loop with every observability layer
// optional: telemetry instruments, per-trial snapshots, causal spans, the
// deterministic trial recording, and a parallel scheduler. The probing
// and scoring sequence — and therefore every RNG draw — is identical
// across all option combinations: trial t always runs on the t-th fork of
// rng, whether trials execute serially or on a worker pool, and whether
// or not observers are attached. That is what makes recordings
// replayable and parallel runs byte-identical to serial ones.
func RunTrialsOpts(nc *NetworkConfig, attackers []core.Attacker, trials int, meas Measurement, rng *stats.RNG, opts TrialOptions) ([]AttackerResult, []TrialRecord, error) {
	reg := opts.Registry
	rec := opts.Recorder
	spansOut := opts.Spans
	if spansOut == nil && rec.Enabled() {
		spansOut = telemetry.NewSpanRecorder(0)
		spansOut.SetWallClock(nil) // recordings must be pure functions of the seeds
	}

	env := newTrialEnv(nc, attackers, meas, opts.Source, reg, opts.Faults)
	env.observing = rec.Enabled() || spansOut != nil
	env.recording = rec.Enabled()
	env.eventing = opts.Events != nil
	env.noWall = opts.Spans == nil
	env.detect = opts.Detect
	env.detAgg = opts.Detect != nil && opts.DetectAggregate != nil
	verdicts := make([][4]*telemetry.Counter, len(attackers))
	results := make([]AttackerResult, len(attackers))
	for i, a := range attackers {
		results[i].Name = a.Name()
		verdicts[i] = verdictCounters(reg, a.Name())
	}

	// count feeds the confusion-matrix counters the moment a trial
	// finishes. The counters are atomic and commutative, so workers may
	// call this out of trial order — it is what keeps the /debug/live
	// accuracy view current during a parallel run instead of jumping
	// from zero to final at the end.
	count := func(out trialOut) {
		if out.err != nil {
			return
		}
		for i := range attackers {
			countVerdict(verdicts[i], out.verdicts[i], out.truth)
		}
	}

	// assemble folds trial t's output into the aggregate results and the
	// recording. It must be called in trial order.
	assemble := func(t int, out trialOut) error {
		if out.err != nil {
			return out.err
		}
		for i := range attackers {
			score(&results[i], out.verdicts[i], out.truth)
		}
		// In-order batch append keeps the event stream byte-identical at
		// every parallelism level (safe on a nil log).
		opts.Events.Append(out.events)
		// The aggregate defender view folds in strict (trial, attacker)
		// order so the merged state is a pure function of the seeds.
		for _, d := range out.dets {
			opts.DetectAggregate.Merge(d)
		}
		if env.observing {
			spansOut.Import(out.spans)
			if rec.Enabled() {
				rec.BeginTrial(t, out.truth, out.arrivals)
				for _, at := range out.atts {
					rec.Attacker(at)
				}
				rec.Spans(spansOut.Drain())
				if err := rec.EndTrial(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	workers := opts.Parallelism
	if workers > trials {
		workers = trials
	}
	if opts.PerTrial && reg != nil {
		workers = 1 // cumulative snapshots are order-sensitive
	}
	if workers <= 1 {
		var records []TrialRecord
		for t := 0; t < trials; t++ {
			out := env.runTrial(t, rng.Int63()) // the seed rng.Fork() would use
			count(out)
			if err := assemble(t, out); err != nil {
				return nil, nil, err
			}
			if opts.PerTrial && reg != nil {
				records = append(records, TrialRecord{Trial: t, Truth: out.truth, Telemetry: reg.Snapshot()})
			}
		}
		return results, records, nil
	}

	// Parallel path: derive the per-trial seeds up front with exactly the
	// draw sequence the serial loop's rng.Fork() calls would consume, fan
	// the trials over the pool, then assemble in trial order.
	seeds := make([]int64, trials)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	outs := make([]trialOut, trials)
	busy := reg.Gauge("experiment_trial_workers_busy")
	reg.Gauge("experiment_trial_workers").Set(int64(workers))

	// Assembly streams behind the workers instead of waiting for the
	// whole run: a frontier walks forward over the completed-trial mask,
	// folding each trial in exact trial order the moment it and all its
	// predecessors are done. The event log and recording therefore fill
	// DURING a parallel run (what /debug/events and -events-out observe)
	// while staying byte-identical to the serial stream, and each
	// assembled trial's buffers are released instead of held to the end.
	var (
		asmMu    sync.Mutex
		done     = make([]bool, trials)
		frontier int
		asmErr   error
	)
	markDone := func(t int) {
		asmMu.Lock()
		defer asmMu.Unlock()
		done[t] = true
		for frontier < trials && done[frontier] {
			if asmErr == nil {
				asmErr = assemble(frontier, outs[frontier])
			}
			outs[frontier] = trialOut{}
			frontier++
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= trials {
					return
				}
				busy.Add(1)
				outs[t] = env.runTrial(t, seeds[t])
				count(outs[t])
				busy.Add(-1)
				markDone(t)
			}
		}()
	}
	wg.Wait()
	if asmErr != nil {
		return nil, nil, asmErr
	}
	return results, nil, nil
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
