// Command flowrecon runs one end-to-end flow-reconnaissance attack on a
// randomly generated network configuration: it fits the compact Markov
// model, selects the optimal probe(s), runs repeated trials against
// simulated Poisson traffic, and reports each attacker's accuracy.
//
// Usage:
//
//	flowrecon -seed 7 -trials 200 -probes 2
//	flowrecon -seed 7 -trials 200 -record run.jsonl -telemetry-out tel.json
//	flowrecon -seed 7 -workload pareto -alpha 1.3
//	flowrecon -seed 7 -trace capture.pcap -record run.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flowrecon", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "random seed for the network configuration")
		trials  = fs.Int("trials", 100, "attack trials")
		probes  = fs.Int("probes", 1, "number of probe flows the model attacker sends")
		small   = fs.Bool("small", false, "use the scaled-down 8-flow configuration")
		details = fs.Bool("details", false, "print the rule set and per-flow probe evaluations")
		sweep   = fs.Bool("sweep", false, "also sweep the attack window and report gain vs T")
		telOut  = fs.String("telemetry-out", "", "write final + per-trial telemetry snapshots as JSON to this file")
		telAddr = fs.String("telemetry-addr", "", "serve the live ops surface (/metrics, /debug/live, /healthz) on this address while the run executes")
		evOut   = fs.String("events-out", "", "stream wide events (probe decisions, verdicts, faults) as JSONL to this file")
		recOut  = fs.String("record", "", "write the deterministic trial recording (JSONL) to this file; replay with cmd/inspect -replay")
		par     = fs.Int("parallelism", 1, "trial-runner worker goroutines; results and recordings are identical at every level")
		detectF = fs.Bool("detect", false, "run the defender's streaming detector inside every trial (verdicts → wide events; merged state at /debug/detect and printed at exit)")

		profDir      = fs.String("profile-dir", "", "capture periodic pprof CPU/heap snapshots into this directory")
		profInterval = fs.Duration("profile-interval", 0, "profile snapshot period (default 30s when -profile-dir is set)")
		profKeep     = fs.Int("profile-keep", 4, "newest profile snapshots retained per kind")

		traceF    = fs.String("trace", "", "replay traffic from this capture (pcap) or flow log (csv/jsonl); rates are fitted from the file and the recording pins it by SHA-256")
		workloadF = fs.String("workload", "", "synthetic traffic shape: poisson (default), periodic, bursty, pareto, lognormal, diurnal, flash")
		alphaF    = fs.Float64("alpha", 0, "Pareto tail index for -workload pareto (default 1.5)")
		sigmaF    = fs.Float64("sigma", 0, "log-normal shape for -workload lognormal (default 1.5)")

		faultSeed   = fs.Int64("fault-seed", 0, "seed for injected probe faults (chaos runs)")
		faultLoss   = fs.Float64("fault-loss", 0, "probability each probe is lost (no observation)")
		faultJitter = fs.Float64("fault-jitter", 0, "mean added probe delay, ms (exponential)")

		fleetF   = fs.Bool("fleet", false, "run the attack on a simulated datacenter fleet (multi-switch remote-edge inference) instead of the single-table model")
		switches = fs.Int("switches", 20, "fleet fabric size floor (generated topologies round up)")
		shards   = fs.Int("shards", 1, "fleet simulation shards; results are byte-identical at every count")
		topo     = fs.String("topo", "fattree", "fleet topology: backbone, fattree, or leafspine")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetF {
		return runFleet(fleetArgs{
			switches: *switches, shards: *shards, topo: *topo,
			trials: *trials, seed: *seed, recOut: *recOut, detect: *detectF,
			faultSeed: *faultSeed, faultLoss: *faultLoss, faultJitter: *faultJitter,
			telOut: *telOut,
		})
	}
	if *recOut != "" && *recOut == *telOut {
		return fmt.Errorf("flowrecon: -record and -telemetry-out must name different files (both got %q)", *recOut)
	}

	params := experiment.DefaultParams()
	if *small {
		params = experiment.SmallParams()
	}
	// Derive both role seeds from the root seed so a recording header
	// pins everything needed to replay the run bit-for-bit.
	rootRNG := stats.NewRNG(*seed)
	spec := experiment.RecordingSpec{
		Params:      params,
		ConfigSeed:  rootRNG.Int63(),
		TrialSeed:   rootRNG.Int63(),
		Trials:      *trials,
		Probes:      *probes,
		Measurement: experiment.DefaultMeasurement(),
	}
	traceSpec, err := experiment.TraceSpecForCLI(*traceF, *workloadF, *alphaF, *sigmaF)
	if err != nil {
		return err
	}
	spec.Trace = traceSpec
	switch {
	case *traceF != "":
		fmt.Printf("traffic: windowed replay of %s (sha256 %s…, rates fitted from the capture)\n", *traceF, traceSpec.SHA256[:12])
	case *workloadF != "":
		fmt.Printf("traffic: %s workload at the configured mean rates\n", *workloadF)
	}
	if *faultLoss > 0 || *faultJitter > 0 {
		spec.Faults = &faults.Profile{Seed: *faultSeed, LossProb: *faultLoss, JitterMeanMs: *faultJitter}
		if err := spec.Faults.Validate(); err != nil {
			return err
		}
		fmt.Printf("fault injection armed: %+v\n", *spec.Faults)
	}
	// The ops surface comes up BEFORE the model build so /readyz reports
	// 503 through the expensive fitting phase and the build's own
	// counters (evolve steps, cache misses) land in the registry.
	var reg *telemetry.Registry
	if *telOut != "" || *telAddr != "" || *evOut != "" {
		reg = telemetry.NewRegistry()
	}
	var events *telemetry.EventLog
	if *evOut != "" || *telAddr != "" {
		events = reg.EnableEvents(0)
		if *evOut != "" {
			ef, err := os.Create(*evOut)
			if err != nil {
				return err
			}
			defer ef.Close()
			events.SetSink(ef)
		}
	}
	// The merged session detector is built after the network config exists
	// (its baseline is trained on benign traffic for that config); the mux
	// closure dereferences it per request, so mounting early is safe.
	var detAgg *detect.Detector
	if *telAddr != "" {
		reg.SetReady(false)
		mux := telemetry.NewMux(reg)
		if *detectF {
			mux.HandleFunc("/debug/detect", func(w http.ResponseWriter, r *http.Request) {
				detAgg.ServeHTTP(w, r)
			})
		}
		srv, err := telemetry.ServeHandler(*telAddr, mux)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("live ops surface on http://%s (watch with: flowtop -addr %s)\n", srv.Addr(), srv.Addr())
	}
	if *profDir != "" {
		iv := *profInterval
		if iv <= 0 {
			iv = 30 * time.Second
		}
		ring, err := telemetry.StartProfileRing(*profDir, iv, *profKeep, iv/4)
		if err != nil {
			return err
		}
		defer ring.Stop()
		fmt.Printf("profile ring armed: %s every %s (keep %d)\n", *profDir, iv, *profKeep)
	}

	fmt.Printf("sampling a network configuration (|Rules|=%d, n=%d, %d flows, Δ=%.3fs, T=%d steps)…\n",
		params.NumRules, params.CacheSize, params.NumFlows, params.Delta, params.Steps())
	// The model layer's build and evolve instruments land in the same
	// snapshot as the experiment metrics.
	nc, err := spec.BuildConfig(core.NewBuilds(reg, false))
	if err != nil {
		return err
	}

	fmt.Printf("\ntarget flow f̂ = %d  (λ=%.3f/s, P(absent in window)=%.3f, covered by %d rules)\n",
		nc.Target, nc.Rates[nc.Target], nc.PAbsent(), nc.NumCoveringTarget)
	if *details {
		fmt.Println("\npolicy:")
		for _, r := range nc.Rules.Rules() {
			fmt.Printf("  %-40s λΣ=%.3f\n", r.String(), sumRates(nc, r.ID))
		}
		fmt.Println("\nper-flow probe evaluation:")
		for _, f := range nc.Selector.AllFlows() {
			e := nc.Selector.Evaluate(f)
			marker := " "
			if f == nc.Target {
				marker = "T"
			}
			fmt.Printf("  %s flow %2d: gain=%.4f bits  P(hit)=%.3f  P(X̂=1|hit)=%.3f  P(X̂=0|miss)=%.3f\n",
				marker, f, e.Gain, e.PHit, e.PostPresentGivenHit, e.PostAbsentGivenMiss)
		}
	}
	fmt.Printf("\noptimal probe: flow %d (gain %.4f bits; target-probe gain %.4f)\n",
		nc.Optimal.Flow, nc.Optimal.Gain, nc.TargetEval.Gain)
	if nc.OptimalDiffersFromTarget() {
		fmt.Println("→ the model chose a probe other than the target (the Figure 2c effect)")
	}
	if !nc.DetectorViable() {
		fmt.Println("→ warning: this configuration is not a viable detector (§VI-B filter)")
	}

	attackers, err := experiment.StandardAttackers(nc, *probes)
	if err != nil {
		return err
	}
	var detCfg *detect.Config
	if *detectF {
		// Train the benign baseline on fresh Poisson windows for this
		// exact configuration, then run one detector replica per
		// (trial, attacker) and merge them into the session view.
		base, err := experiment.TrainDetectBaseline(nc, 40, stats.NewRNG(rootRNG.Int63()), experiment.PoissonSource)
		if err != nil {
			return err
		}
		cfg := experiment.DetectConfigFor(nc, base)
		detCfg = &cfg
		detAgg = detect.New(cfg)
		if reg != nil {
			detAgg.SetTelemetry(reg)
		}
		fmt.Printf("\ndefender armed: streaming detector on every trial (baseline: 40 benign windows)\n")
	}
	fmt.Printf("\nrunning %d trials…\n", *trials)
	reg.SetReady(true) // model fitted; the run is now in its steady phase
	opts := experiment.RunnerOptions{Registry: reg, Detect: detCfg, Record: *recOut != "", Events: events != nil}
	runner, err := spec.Runner(nc, attackers, opts)
	if err != nil {
		return err
	}
	var rec *trialrec.Recorder
	if *recOut != "" {
		hdr, err := spec.Header(runner)
		if err != nil {
			return err
		}
		if rec, err = trialrec.Create(*recOut, hdr); err != nil {
			return err
		}
	}
	// The sinks consume the trials in trial order, so every output is
	// identical at every parallelism.
	var sinks []func(experiment.TrialResult) error
	if events != nil {
		sinks = append(sinks, func(res experiment.TrialResult) error {
			events.Append(res.Events)
			return nil
		})
	}
	if detAgg != nil {
		sinks = append(sinks, func(res experiment.TrialResult) error {
			for _, d := range res.Detectors {
				detAgg.Merge(d)
			}
			res.ReleaseDetectors() // no later sink reads them
			return nil
		})
	}
	if rec != nil {
		sinks = append(sinks, experiment.RecordTrials(rec))
	}
	workers := *par
	var records []experiment.TrialRecord
	if *telOut != "" {
		// A cumulative snapshot after trial t must not see trial t+1's
		// counts, so per-trial snapshots run the trials serially.
		workers = 1
		sinks = append(sinks, func(res experiment.TrialResult) error {
			records = append(records, experiment.TrialRecord{Trial: res.Trial, Truth: res.Truth, Telemetry: reg.Snapshot()})
			return nil
		})
	}
	results, err := runner.RunTrials(*trials, spec.TrialSeed, workers, sinks...)
	if err != nil {
		rec.Close()
		return err
	}
	fmt.Printf("\n%-16s %9s %6s %6s %6s %6s\n", "attacker", "accuracy", "TP", "TN", "FP", "FN")
	for _, r := range results {
		fmt.Printf("%-16s %8.1f%% %6d %6d %6d %6d\n", r.Name, 100*r.Accuracy(), r.TruePos, r.TrueNeg, r.FalsePos, r.FalseNeg)
	}
	if detAgg != nil {
		snap := detAgg.Snap(5)
		fmt.Printf("\ndetector (merged over %d trials × %d attackers): %d sources tracked, %d flagged\n",
			*trials, len(attackers), snap.SourcesTracked, snap.Flagged)
		for _, s := range snap.Top {
			if s.Flagged {
				fmt.Printf("  flagged source %2d: reason=%s score=%.2f obs=%d\n", s.Source, s.Reason, s.Score, s.Observations)
			}
		}
	}

	// Both sinks flush before run returns: the recording on Close, the
	// telemetry snapshot in writeTelemetry.
	if rec.Enabled() {
		trialsWritten := rec.Trials()
		if err := rec.Close(); err != nil {
			return err
		}
		fmt.Printf("\nrecording written to %s (%d trials; verify with: inspect -replay %s)\n", *recOut, trialsWritten, *recOut)
	}
	if *telOut != "" {
		if err := writeTelemetry(*telOut, reg, records); err != nil {
			return err
		}
		fmt.Printf("\ntelemetry written to %s (%d per-trial records)\n", *telOut, len(records))
	}
	if events != nil {
		if err := events.SinkErr(); err != nil {
			return fmt.Errorf("flowrecon: event sink: %w", err)
		}
		if *evOut != "" {
			fmt.Printf("wide events streamed to %s (%d retained, %d beyond ring)\n", *evOut, events.Len(), events.Dropped())
		}
	}

	if *sweep {
		fmt.Println("\ngain vs attack window (how far back can the channel see?):")
		windows := []int{1, 2, 5, 10, 20, 40}
		full := nc.Params.Steps()
		windows = append(windows, full/4, full)
		points, err := nc.Selector.GainVsWindow(windows)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Printf("  T=%4d steps (%5.2fs): best probe %2d gain=%.4f bits  P(absent)=%.3f\n",
				p.Steps, float64(p.Steps)*nc.Params.Delta, p.Best.Flow, p.Best.Gain, p.PAbsent)
		}
	}
	return nil
}

// fleetArgs carries the -fleet mode's flag values.
type fleetArgs struct {
	switches, shards int
	topo             string
	trials           int
	seed             int64
	recOut           string
	detect           bool
	faultSeed        int64
	faultLoss        float64
	faultJitter      float64
	telOut           string
}

// runFleet runs the multi-switch fleet scenario: the same timing channel,
// but the probed rule state lives on edge switches the attacker never
// talks to directly (EXPERIMENTS.md §16).
func runFleet(a fleetArgs) error {
	o := experiment.DefaultFleetOptions()
	o.Topo, o.Switches, o.Shards = a.topo, a.switches, a.shards
	o.Trials, o.Seed = a.trials, a.seed
	if a.faultLoss > 0 || a.faultJitter > 0 {
		o.Faults = faults.Profile{Seed: a.faultSeed, LossProb: a.faultLoss, JitterMeanMs: a.faultJitter}
		if err := o.Faults.Validate(); err != nil {
			return err
		}
		fmt.Printf("fault injection armed: %+v\n", o.Faults)
	}
	if a.detect {
		cfg := detect.DefaultConfig()
		o.Detect = &cfg
	}
	if a.telOut != "" {
		o.Registry = telemetry.NewRegistry()
	}
	if a.recOut != "" {
		rec, err := trialrec.Create(a.recOut, trialrec.Header{
			Seed:      o.Seed,
			Trials:    o.Trials,
			Attackers: []string{experiment.FleetAttackerName},
		})
		if err != nil {
			return err
		}
		o.Recorder = rec
		defer rec.Close()
	}
	fmt.Printf("running %d fleet trials (%s, ≥%d switches, %d shards)…\n\n", o.Trials, o.Topo, o.Switches, o.Shards)
	out, err := experiment.RunFleetTrials(o)
	if err != nil {
		return err
	}
	if err := experiment.WriteFleet(os.Stdout, out); err != nil {
		return err
	}
	if o.Recorder.Enabled() {
		trialsWritten := o.Recorder.Trials()
		if err := o.Recorder.Close(); err != nil {
			return err
		}
		fmt.Printf("\nrecording written to %s (%d trials)\n", a.recOut, trialsWritten)
	}
	if a.telOut != "" {
		if err := writeTelemetry(a.telOut, o.Registry, nil); err != nil {
			return err
		}
		fmt.Printf("\ntelemetry written to %s\n", a.telOut)
	}
	return nil
}

// writeTelemetry dumps the final registry snapshot alongside the per-trial
// records as one indented JSON document.
func writeTelemetry(path string, reg *telemetry.Registry, records []experiment.TrialRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Final  telemetry.Snapshot       `json:"final"`
		Trials []experiment.TrialRecord `json:"trials,omitempty"`
	}{Final: reg.Snapshot(), Trials: records})
}

func sumRates(nc *experiment.NetworkConfig, ruleID int) float64 {
	var s float64
	for _, f := range nc.Rules.Rule(ruleID).Cover.IDs() {
		s += nc.Rates[f]
	}
	return s
}
