package experiment

import (
	"fmt"
	"io"
	"math"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/netsim"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/workload"
)

// This file is the attacker-vs-defender evaluation: the detection side
// of the §VI experiments. The attack harness measures how accurately an
// attacker reads flow presence off the timing channel; the functions
// here measure what that costs the attacker once the controller path is
// watched — how many probes until the defender flags the probing
// source, how often benign traffic trips the same thresholds, and how
// much accuracy a stealth-paced attacker retains.

// TrainDetectBaseline replays benign traffic windows through fresh
// tables, with the trial loop's replay, and measures what the controller
// path actually sees per flow — the observation rate and miss fraction
// the anomaly scorers need as their benign reference.
//
// The per-flow rate is provisioned for the observed benign PEAK window,
// not the mean: a mean-rate baseline cannot hold a 1% false-positive
// rate under bursty traffic, because an ON burst genuinely produces
// many-sigma-versus-mean window counts. Training on the highest benign
// window makes the rate scorer burst-proof at the cost of rate
// sensitivity — on bursty deployments the regularity scorer carries
// detection. The result is a pure function of (nc, windows, rng draws,
// source).
func TrainDetectBaseline(nc *NetworkConfig, windows int, rng *stats.RNG, source TraceSource) (detect.Baseline, error) {
	if windows < 1 {
		return detect.Baseline{}, fmt.Errorf("experiment: baseline needs ≥ 1 window, got %d", windows)
	}
	if source == nil {
		source = PoissonSource
	}
	horizon := float64(nc.Params.Steps()) * nc.Params.Delta
	counts := make([]float64, nc.Params.NumFlows)
	misses := make([]float64, nc.Params.NumFlows)
	peaks := make([]float64, nc.Params.NumFlows)
	window := make([]float64, nc.Params.NumFlows)
	sc := scratchPool.Get().(*trialScratch)
	defer scratchPool.Put(sc)
	for w := 0; w < windows; w++ {
		sc.rng.Reseed(rng.Int63()) // the stream rng.Fork() would give
		trace, err := source(nc.Rates, horizon, &sc.rng)
		if err != nil {
			return detect.Baseline{}, err
		}
		if err := sc.replay(nc, trace, flowtable.Metrics{}); err != nil {
			return detect.Baseline{}, err
		}
		clear(window)
		for i, a := range sc.arrivals {
			counts[a.Flow]++
			window[a.Flow]++
			if !sc.hits[i] {
				misses[a.Flow]++
			}
		}
		for f, c := range window {
			if c > peaks[f] {
				peaks[f] = c
			}
		}
	}
	b := detect.Baseline{
		Rates:     make([]float64, nc.Params.NumFlows),
		MissFracs: make([]float64, nc.Params.NumFlows),
	}
	var totalObs, totalMiss, rateSum float64
	for f := range counts {
		b.Rates[f] = peaks[f] / horizon
		rateSum += b.Rates[f]
		if counts[f] > 0 {
			b.MissFracs[f] = misses[f] / counts[f]
		} else {
			b.MissFracs[f] = 1 // an unseen flow's first packets all miss
		}
		totalObs += counts[f]
		totalMiss += misses[f]
	}
	b.DefaultRate = rateSum / float64(len(counts))
	if totalObs > 0 {
		b.MissFrac = totalMiss / totalObs
	} else {
		b.MissFrac = 1
	}
	return b, nil
}

// DetectConfigFor wraps a trained baseline in the default detector
// thresholds, with the sliding window matched to the experiment's
// traffic window.
func DetectConfigFor(nc *NetworkConfig, b detect.Baseline) detect.Config {
	cfg := detect.DefaultConfig()
	cfg.WindowSec = nc.Params.WindowSeconds
	cfg.Baseline = b
	return cfg
}

// FPRResult is the benign false-positive measurement: of all the
// sources benign-only trials exposed to the detector, how many were
// flagged.
type FPRResult struct {
	Trials  int
	Sources int
	Flagged int
}

// Rate returns flagged/sources (0 when nothing was tracked).
func (r FPRResult) Rate() float64 {
	if r.Sources == 0 {
		return 0
	}
	return float64(r.Flagged) / float64(r.Sources)
}

// BenignFPR replays benign-only windows — no attacker — each against a
// fresh detector, and counts how many of the tracked sources the
// detector wrongly flagged.
func BenignFPR(nc *NetworkConfig, cfg detect.Config, trials int, rng *stats.RNG, source TraceSource) (FPRResult, error) {
	if source == nil {
		source = PoissonSource
	}
	horizon := float64(nc.Params.Steps()) * nc.Params.Delta
	var res FPRResult
	sc := scratchPool.Get().(*trialScratch)
	defer scratchPool.Put(sc)
	for t := 0; t < trials; t++ {
		sc.rng.Reseed(rng.Int63()) // the stream rng.Fork() would give
		trace, err := source(nc.Rates, horizon, &sc.rng)
		if err != nil {
			return res, err
		}
		det := detect.New(cfg)
		if err := sc.replay(nc, trace, flowtable.Metrics{}); err != nil {
			return res, err
		}
		sc.observeReplay(det)
		res.Trials++
		res.Sources += det.Sources()
		res.Flagged += len(det.Verdicts())
	}
	return res, nil
}

// DetectionOutcome is one probing session as the defender saw it.
type DetectionOutcome struct {
	// Flagged reports whether the detector caught the probing source
	// within the probe budget.
	Flagged bool
	// Probes is the number of probes the attacker had sent when the flag
	// fired (the detection latency), or the full budget when it never did.
	Probes int
	// Seconds is the attack clock at the end of the session.
	Seconds float64
	// Reason and Score echo the detector's verdict when flagged.
	Reason string
	Score  float64
}

// DefaultProbeInterval is the §III eviction-probing cadence: probes
// must race the rule idle timeouts to keep measuring table state, which
// puts them at sub-second spacing — the pathological regularity the
// detector keys on.
const DefaultProbeInterval = 0.4

// MeasureDetectionLatency runs the §VI probing session against a
// watched controller path: continuous benign traffic with an
// eviction-probing attacker on top, probing the best probe flow on the
// pace schedule (default: DefaultProbeInterval; a stealth pace
// stretches and jitters that schedule). It returns how many probes the
// attacker got away with before the detector flagged the probing
// source.
func MeasureDetectionLatency(nc *NetworkConfig, cfg detect.Config, meas Measurement, rng *stats.RNG, pace core.Pacing, maxProbes int, source TraceSource) (DetectionOutcome, error) {
	if maxProbes < 1 {
		return DetectionOutcome{}, fmt.Errorf("experiment: maxProbes %d < 1", maxProbes)
	}
	if source == nil {
		source = PoissonSource
	}
	horizon := float64(nc.Params.Steps()) * nc.Params.Delta
	if !pace.Enabled() {
		pace = core.Pacing{IntervalSec: DefaultProbeInterval}
	}
	det := detect.New(cfg)
	tbl, err := flowtable.New(nc.Rules, nc.Params.CacheSize, nc.Params.Delta)
	if err != nil {
		return DetectionOutcome{}, err
	}
	probeFlow := nc.Optimal.Flow
	probes := 0
	var out DetectionOutcome

	fire := func(at float64) {
		hit := tbl.Packet(probeFlow, at)
		_, ms := meas.ClassifyMs(hit, rng)
		det.Observe(int(probeFlow), at, ms, hit)
		probes++
		out.Seconds = at
	}
	flagged := func() bool {
		v, ok := det.IsFlagged(int(probeFlow))
		if ok {
			out.Flagged, out.Reason, out.Score = true, v.Reason, v.Score
		}
		return ok
	}

	// The attack starts after one full benign window (the defender's
	// scorers need the benign background they were trained on).
	nextProbe := horizon
	for w := 0; probes < maxProbes && !out.Flagged; w++ {
		off := float64(w) * horizon
		trace, err := source(nc.Rates, horizon, rng.Fork())
		if err != nil {
			return out, err
		}
		for _, a := range trace.Arrivals() {
			at := off + a.Time
			for nextProbe <= at && probes < maxProbes && !out.Flagged {
				fire(nextProbe)
				nextProbe += paceGap(pace, rng)
				flagged()
			}
			hit := tbl.Packet(a.Flow, at)
			det.Observe(int(a.Flow), at, math.NaN(), hit)
		}
		for nextProbe <= off+horizon && probes < maxProbes && !out.Flagged {
			fire(nextProbe)
			nextProbe += paceGap(pace, rng)
			flagged()
		}
		flagged() // a benign arrival of the probed flow can tip the score
	}
	out.Probes = probes
	return out, nil
}

// StealthRow is one point on the stealth-vs-exposure tradeoff: the
// attacker's residual accuracy with the paced schedule and what the
// defender saw of the probing session.
type StealthRow struct {
	Label    string
	Pace     core.Pacing
	Accuracy float64
	Session  DetectionOutcome
}

// stealthTradeoff sweeps stealth pacings over the same configuration:
// for each pacing it measures the multi-probe model attacker's residual
// accuracy over stealthTrials trials (paced probes land later, against a
// further-decayed table) and the session detection latency at that pace.
// The zero pacing is the paper's default attacker.
func stealthTradeoff(nc *NetworkConfig, cfg detect.Config, meas Measurement, seed int64, pacings []core.Pacing) ([]StealthRow, error) {
	rows := make([]StealthRow, 0, len(pacings))
	for _, pace := range pacings {
		model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), stealthAttackProbes)
		if err != nil {
			return nil, err
		}
		model.SetPacing(pace)
		runner := NewTrialRunner(nc, []core.Attacker{model}, meas, RunnerOptions{Detect: &cfg})
		results, err := runner.RunTrials(stealthTrials, seed, 1)
		if err != nil {
			return nil, err
		}
		session, err := MeasureDetectionLatency(nc, cfg, meas, stats.NewRNG(seed+1), pace, detectMaxProbes, nil)
		if err != nil {
			return nil, err
		}
		label := "default"
		if pace.Enabled() {
			label = fmt.Sprintf("pace=%.1fs jitter=%.0f%%", pace.IntervalSec, pace.JitterFrac*100)
		}
		rows = append(rows, StealthRow{Label: label, Pace: pace, Accuracy: results[0].Accuracy(), Session: session})
	}
	return rows, nil
}

// MeasureSimDetection is the virtual-time-substrate detection
// measurement: a detector at the simulated fabric's reactive ingress
// lookup, benign Poisson background over the Stanford-like topology, and an
// eviction prober pacing probes of one covered flow. It returns the
// probes-until-flagged latency through real (simulated) switch, link and
// controller delays rather than the abstract table model.
func MeasureSimDetection(seed int64, intervalSec float64, maxProbes int) (DetectionOutcome, error) {
	const (
		numFlows   = 16
		benignRate = 0.4
		warmup     = 20.0
	)
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), numFlows)
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.1), stats.NewRNG(seed))
	if err != nil {
		return DetectionOutcome{}, err
	}
	covered := rs.CoveredFlows()
	probeFlow := flows.ID(0)
	found := false
	for f := 0; f < numFlows; f++ {
		if covered.Contains(flows.ID(f)) {
			probeFlow, found = flows.ID(f), true
			break
		}
	}
	if !found {
		return DetectionOutcome{}, fmt.Errorf("experiment: policy covers no evaluation flow")
	}

	rates := make([]float64, numFlows)
	for i := range rates {
		rates[i] = benignRate
	}
	cfg := detect.DefaultConfig()
	cfg.Baseline.Rates = rates
	cfg.Baseline.DefaultRate = benignRate
	det := detect.New(cfg)
	f, err := netsim.NewFleet(netsim.FleetConfig{
		Topo:     netsim.StanfordBackbone(),
		Capacity: 9,
		StepSec:  0.1,
		Ctrl:     netsim.NewControllerModel(rs, controller.Options{ProcessingDelay: time.Millisecond}),
		Universe: universe,
		Seed:     seed + 1,
		Detector: det,
	})
	if err != nil {
		return DetectionOutcome{}, err
	}
	defer f.Close()
	setup, err := netsim.AttachEvaluationHosts(f, flows.MakeIPv4(10, 0, 1, 0), numFlows, "yoza_rtr", "boza_rtr")
	if err != nil {
		return DetectionOutcome{}, err
	}

	duration := warmup + float64(maxProbes)*intervalSec + 5
	trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: rates, Duration: duration}, stats.NewRNG(seed+2))
	if err != nil {
		return DetectionOutcome{}, err
	}
	if err := netsim.ReplayTrace(f, setup, trace, 0); err != nil {
		return DetectionOutcome{}, err
	}
	f.RunUntil(warmup)

	prober := netsim.NewFleetProber(f)
	var out DetectionOutcome
	at := warmup
	for p := 0; p < maxProbes; p++ {
		if _, err := setup.ProbeFlow(prober, probeFlow, at); err != nil {
			return out, err
		}
		out.Probes++
		out.Seconds = at
		at += intervalSec
		if v, ok := det.IsFlagged(int(probeFlow)); ok {
			out.Flagged, out.Reason, out.Score = true, v.Reason, v.Score
			break
		}
	}
	return out, nil
}

// DetectionReport is everything the -detect experiment measures.
type DetectionReport struct {
	Baseline     detect.Baseline
	ModelLatency DetectionOutcome // abstract table substrate, default cadence
	SimLatency   DetectionOutcome // virtual-time network substrate
	FPRPoisson   FPRResult
	FPRBursty    FPRResult
	FPRPareto    FPRResult // heavy-tailed renewal (α=1.5)
	FPRLogNormal FPRResult // log-normal renewal (σ=1.5)
	FPRFlash     FPRResult // flash-crowd spike (8× over the middle third)
	// BaselineMatched is the heavy-tail-aware baseline: the same
	// peak-provisioning trainer, but run on the deployment workload's own
	// interarrival law instead of Poisson, so the peak budget reflects the
	// bursts benign traffic actually produces. FPRParetoMatched re-measures
	// the Pareto row against it (ROADMAP item 5 sub-item: the mismatched
	// row flags ~4% of benign sources at paper scale).
	BaselineMatched  detect.Baseline
	FPRParetoMatched FPRResult
	Stealth          []StealthRow
}

// The defender evaluation's fixed sizes.
const (
	detectBaselineWindows = 40  // benign windows used to train the baseline
	detectFPRTrials       = 200 // benign-only trials per workload for the FPR
	detectMaxProbes       = 200 // probe budget per session, the acceptance bound
	stealthTrials         = 200 // trials per stealth pacing
	stealthAttackProbes   = 4   // probes per trial for the stealth attacker
)

// DetectionEvalOptions parameterizes RunDetectionEval.
type DetectionEvalOptions struct {
	Params    Params
	Seed      int64
	Telemetry *telemetry.Registry
}

// RunDetectionEval runs the full defender evaluation: train a baseline
// on benign traffic, measure detection latency on both substrates,
// measure the benign false-positive rate under Poisson and bursty
// workloads, and sweep the stealth-pacing tradeoff.
func RunDetectionEval(opts DetectionEvalOptions) (*DetectionReport, error) {
	rng := stats.NewRNG(opts.Seed)
	nc, err := sampleConfig(opts.Params, nil, rng, core.NewBuilds(opts.Telemetry, false))
	if err != nil {
		return nil, fmt.Errorf("detect eval config: %w", err)
	}

	rep := &DetectionReport{}
	rep.Baseline, err = TrainDetectBaseline(nc, detectBaselineWindows, rng.Fork(), nil)
	if err != nil {
		return nil, err
	}
	cfg := DetectConfigFor(nc, rep.Baseline)
	meas := DefaultMeasurement()

	rep.ModelLatency, err = MeasureDetectionLatency(nc, cfg, meas, rng.Fork(), core.Pacing{}, detectMaxProbes, nil)
	if err != nil {
		return nil, err
	}
	rep.SimLatency, err = MeasureSimDetection(opts.Seed+100, 0.4, detectMaxProbes)
	if err != nil {
		return nil, err
	}
	rep.FPRPoisson, err = BenignFPR(nc, cfg, detectFPRTrials, rng.Fork(), PoissonSource)
	if err != nil {
		return nil, err
	}
	rep.FPRBursty, err = BenignFPR(nc, cfg, detectFPRTrials, rng.Fork(), BurstySource(4, 2, 6))
	if err != nil {
		return nil, err
	}
	// The break-the-independence-assumption workloads: the baseline was
	// trained on Poisson traffic, so these rows measure how much the
	// defender's false-positive budget erodes when reality is heavy-tailed
	// or spiky — the deployment-honesty number.
	rep.FPRPareto, err = BenignFPR(nc, cfg, detectFPRTrials, rng.Fork(), ParetoSource(1.5))
	if err != nil {
		return nil, err
	}
	rep.FPRLogNormal, err = BenignFPR(nc, cfg, detectFPRTrials, rng.Fork(), LogNormalSource(1.5))
	if err != nil {
		return nil, err
	}
	horizon := float64(nc.Params.Steps()) * nc.Params.Delta
	rep.FPRFlash, err = BenignFPR(nc, cfg, detectFPRTrials, rng.Fork(),
		ModulatedSource(workload.RateProfile{FlashAt: horizon / 3, FlashDur: horizon / 3, FlashFactor: 8}))
	if err != nil {
		return nil, err
	}
	// The heavy-tail-aware re-run: train the peak budget on Pareto
	// interarrivals themselves and measure the same row again. (These
	// forks come after every mismatched row so the numbers above stay
	// byte-stable against prior releases.)
	rep.BaselineMatched, err = TrainDetectBaseline(nc, detectBaselineWindows, rng.Fork(), ParetoSource(1.5))
	if err != nil {
		return nil, err
	}
	rep.FPRParetoMatched, err = BenignFPR(nc, DetectConfigFor(nc, rep.BaselineMatched), detectFPRTrials, rng.Fork(), ParetoSource(1.5))
	if err != nil {
		return nil, err
	}
	// Uniform jitter is weaker stealth than it looks: gap = I·(1+U[0,J])
	// has CV = J/(√12·(1+J/2)), which crosses the 0.3 regularity
	// threshold only near J ≈ 3. The sweep therefore pairs slowing (rate
	// evasion) with deep jitter (regularity evasion).
	rep.Stealth, err = stealthTradeoff(nc, cfg, meas, opts.Seed+200, []core.Pacing{
		{},
		{IntervalSec: 5, JitterFrac: 1.0},
		{IntervalSec: 30, JitterFrac: 1.0},
		{IntervalSec: 60, JitterFrac: 3.0},
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteDetection renders the detection report as a text table.
func WriteDetection(w io.Writer, rep *DetectionReport) error {
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("Detection evaluation (defender's observatory)\n"); err != nil {
		return err
	}
	p("  baseline: %d benign windows, default rate %.3f/s, miss frac %.3f\n",
		detectBaselineWindows, rep.Baseline.DefaultRate, rep.Baseline.MissFrac)
	p("  detection latency (budget %d probes):\n", detectMaxProbes)
	p("    model substrate:  %s\n", outcomeString(rep.ModelLatency))
	p("    netsim substrate: %s\n", outcomeString(rep.SimLatency))
	p("  benign false-positive rate:\n")
	p("    poisson: %d/%d sources (%.2f%%) over %d trials\n",
		rep.FPRPoisson.Flagged, rep.FPRPoisson.Sources, 100*rep.FPRPoisson.Rate(), rep.FPRPoisson.Trials)
	p("    bursty:  %d/%d sources (%.2f%%) over %d trials\n",
		rep.FPRBursty.Flagged, rep.FPRBursty.Sources, 100*rep.FPRBursty.Rate(), rep.FPRBursty.Trials)
	p("    pareto(α=1.5):    %d/%d sources (%.2f%%) over %d trials\n",
		rep.FPRPareto.Flagged, rep.FPRPareto.Sources, 100*rep.FPRPareto.Rate(), rep.FPRPareto.Trials)
	if rep.FPRParetoMatched.Trials > 0 {
		p("    pareto, matched baseline (trained on pareto interarrivals): %d/%d sources (%.2f%%) over %d trials\n",
			rep.FPRParetoMatched.Flagged, rep.FPRParetoMatched.Sources, 100*rep.FPRParetoMatched.Rate(), rep.FPRParetoMatched.Trials)
	}
	p("    lognormal(σ=1.5): %d/%d sources (%.2f%%) over %d trials\n",
		rep.FPRLogNormal.Flagged, rep.FPRLogNormal.Sources, 100*rep.FPRLogNormal.Rate(), rep.FPRLogNormal.Trials)
	p("    flash-crowd(8×):  %d/%d sources (%.2f%%) over %d trials\n",
		rep.FPRFlash.Flagged, rep.FPRFlash.Sources, 100*rep.FPRFlash.Rate(), rep.FPRFlash.Trials)
	p("  stealth pacing tradeoff (attacker accuracy vs exposure):\n")
	for _, row := range rep.Stealth {
		if err := p("    %-24s accuracy %.3f  %s\n", row.Label, row.Accuracy, outcomeString(row.Session)); err != nil {
			return err
		}
	}
	return nil
}

func outcomeString(o DetectionOutcome) string {
	if o.Flagged {
		return fmt.Sprintf("flagged after %d probes (%.0fs, %s, score %.2f)", o.Probes, o.Seconds, o.Reason, o.Score)
	}
	return fmt.Sprintf("not flagged within %d probes (%.0fs)", o.Probes, o.Seconds)
}
