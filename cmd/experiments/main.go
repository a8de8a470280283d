// Command experiments regenerates every table and figure of the paper's
// evaluation (§VI): the latency characterization, Figure 6a/6b and Figure
// 7a/7b. Results print as text tables; per-configuration CSVs can be
// written for plotting.
//
// Usage:
//
//	experiments -all
//	experiments -fig6 -configs 100 -trials 100
//	experiments -latency
//	experiments -detect
//	experiments -fig7 -csv out/
//	experiments -fleet -topo fattree -switches 1000 -shards 8
//	experiments -workloads
//	experiments -workload pareto -alpha 1.3
//	experiments -trace capture.pcap
//	experiments -fig6 -scale small -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/plot"
	"flowrecon/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		fig6     = fs.Bool("fig6", false, "reproduce Figure 6a/6b")
		fig7     = fs.Bool("fig7", false, "reproduce Figure 7a/7b")
		latency  = fs.Bool("latency", false, "reproduce the §VI-A latency table")
		detectF  = fs.Bool("detect", false, "run the defender evaluation (detection latency, FPR, stealth tradeoff)")
		configs  = fs.Int("configs", 40, "qualifying network configurations per figure (paper: 100)")
		trials   = fs.Int("trials", 100, "trials per configuration (paper: 100)")
		seed     = fs.Int64("seed", 1, "root random seed")
		csvDir   = fs.String("csv", "", "directory for per-configuration CSV output")
		attempts = fs.Int("attempts", 0, "configuration sampling budget (0 = auto: ≥1000, 100×configs)")
		svgDir   = fs.String("svg", "", "directory for SVG renderings of the figures")
		scale    = fs.String("scale", "paper", "parameter scale: paper (16 flows/12 rules) or small (8 flows/6 rules)")
		telOut   = fs.String("telemetry-out", "", "write the final telemetry snapshot (probe histograms, counters) as JSON to this file")
		par      = fs.Int("parallelism", 0, "configuration-sampling workers (0 = GOMAXPROCS); figures identical at every level")

		fleet    = fs.Bool("fleet", false, "run the fleet-scale multi-switch reconnaissance experiment (EXPERIMENTS.md §16)")
		switches = fs.Int("switches", 20, "fleet fabric size floor (generated topologies round up)")
		shards   = fs.Int("shards", 1, "fleet simulation shards; results are byte-identical at every count")
		topo     = fs.String("topo", "fattree", "fleet topology: backbone, fattree, or leafspine")

		workloads = fs.Bool("workloads", false, "run the workload-robustness experiment (EXPERIMENTS.md §17): the full attack + detector FPR on every non-Poisson traffic shape")
		workloadF = fs.String("workload", "", "run §17 with just this shape vs the Poisson reference: bursty, pareto, lognormal, diurnal, flash")
		traceF    = fs.String("trace", "", "run the attack on traffic replayed from this capture (pcap) or flow log (csv/jsonl), rates fitted from the file")
		alphaF    = fs.Float64("alpha", 0, "Pareto tail index for -workload pareto (default 1.5)")
		sigmaF    = fs.Float64("sigma", 0, "log-normal shape for -workload lognormal (default 1.5)")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && !*fig6 && !*fig7 && !*latency && !*detectF && !*fleet && !*workloads && *workloadF == "" && *traceF == "" {
		fs.Usage()
		return fmt.Errorf("select an experiment (-all, -fig6, -fig7, -latency, -detect, -fleet, -workloads, -workload, -trace)")
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, stop()) }()
	}
	if *memProf != "" {
		defer func() { err = errors.Join(err, writeHeapProfile(*memProf)) }()
	}
	var reg *telemetry.Registry
	if *telOut != "" {
		reg = telemetry.NewRegistry()
	}

	params := experiment.DefaultParams()
	if *scale == "small" {
		params = experiment.SmallParams()
	}

	if *all || *latency {
		start := time.Now()
		report, err := experiment.MeasureLatency(400, 120, *seed, 3900*time.Microsecond)
		if err != nil {
			return fmt.Errorf("latency: %w", err)
		}
		if err := experiment.WriteLatency(os.Stdout, report); err != nil {
			return err
		}
		fmt.Printf("(latency experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *detectF {
		start := time.Now()
		rep, err := experiment.RunDetectionEval(experiment.DetectionEvalOptions{
			Params:    params,
			Seed:      *seed,
			Telemetry: reg,
		})
		if err != nil {
			return fmt.Errorf("detect: %w", err)
		}
		if err := experiment.WriteDetection(os.Stdout, rep); err != nil {
			return err
		}
		fmt.Printf("(detection experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *fleet {
		start := time.Now()
		fo := experiment.DefaultFleetOptions()
		fo.Topo, fo.Switches, fo.Shards = *topo, *switches, *shards
		fo.Trials, fo.Seed, fo.Registry = *trials, *seed, reg
		out, err := experiment.RunFleetTrials(fo)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		if err := experiment.WriteFleet(os.Stdout, out); err != nil {
			return err
		}
		fmt.Printf("(fleet experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *workloads || *workloadF != "" {
		start := time.Now()
		rows := experiment.StandardWorkloads()
		if *workloadF != "" {
			spec, err := experiment.TraceSpecForCLI("", *workloadF, *alphaF, *sigmaF)
			if err != nil {
				return err
			}
			rows = []experiment.WorkloadRow{
				{Name: "poisson", Spec: experiment.TraceSourceSpec{Kind: "poisson"}},
				{Name: *workloadF, Spec: *spec},
			}
		}
		// The model build's instruments land in reg's snapshot.
		cmp, err := experiment.RunWorkloadComparisonRows(params, *seed, *trials, 2, 200, rows, core.NewBuilds(reg, false))
		if err != nil {
			return fmt.Errorf("workloads: %w", err)
		}
		if err := experiment.WriteWorkloads(os.Stdout, cmp); err != nil {
			return err
		}
		fmt.Printf("(workload experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *traceF != "" {
		start := time.Now()
		trace, err := experiment.TraceSpecForCLI(*traceF, "", 0, 0)
		if err != nil {
			return err
		}
		spec := experiment.RecordingSpec{
			Params: params, ConfigSeed: *seed, TrialSeed: *seed + 1,
			Trials: *trials, Probes: 2, Trace: trace,
		}
		results, nc, err := experiment.RecordTo(io.Discard, spec, experiment.RunnerOptions{Registry: reg}, 1)
		if err != nil {
			return fmt.Errorf("trace replay: %w", err)
		}
		fmt.Printf("Ingested-capture attack (%s, sha256 %s…)\n", *traceF, trace.SHA256[:12])
		fmt.Printf("  target flow %d (fitted λ=%.3f/s), %d trials\n", nc.Target, nc.Rates[nc.Target], *trials)
		for _, r := range results {
			fmt.Printf("  %-16s accuracy %5.1f%%  (TP %d TN %d FP %d FN %d)\n",
				r.Name, 100*r.Accuracy(), r.TruePos, r.TrueNeg, r.FalsePos, r.FalseNeg)
		}
		fmt.Printf("(trace replay took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *fig6 {
		start := time.Now()
		opts := experiment.FigureOptions{
			Params:          params,
			Configs:         *configs,
			TrialsPerConfig: *trials,
			MaxAttempts:     samplingBudget(*attempts, *configs),
			Seed:            *seed,
			Telemetry:       reg,
			Parallelism:     *par,
		}
		res, err := experiment.RunFig6(opts)
		if err != nil {
			return fmt.Errorf("fig6: %w", err)
		}
		if err := experiment.WriteFig6(os.Stdout, res); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "fig6.csv", res.Outcomes); err != nil {
			return err
		}
		if err := writeSVGs(*svgDir, map[string]*plot.Chart{
			"fig6a": experiment.Fig6aChart(res),
			"fig6b": experiment.Fig6bChart(res),
		}); err != nil {
			return err
		}
		fmt.Printf("(figure 6 took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *fig7 {
		start := time.Now()
		opts := experiment.FigureOptions{
			Params:          params,
			Configs:         *configs,
			TrialsPerConfig: *trials,
			MaxAttempts:     samplingBudget(*attempts, *configs),
			Seed:            *seed + 1,
			Telemetry:       reg,
			Parallelism:     *par,
		}
		res, err := experiment.RunFig7(opts)
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		if err := experiment.WriteFig7(os.Stdout, res); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "fig7.csv", res.Outcomes); err != nil {
			return err
		}
		if err := writeSVGs(*svgDir, map[string]*plot.Chart{
			"fig7a": experiment.Fig7aChart(res),
			"fig7b": experiment.Fig7bChart(res),
		}); err != nil {
			return err
		}
		fmt.Printf("(figure 7 took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if reg != nil {
		if err := telemetry.WriteSnapshotFile(*telOut, reg); err != nil {
			return err
		}
		fmt.Printf("telemetry snapshot written to %s\n", *telOut)
	}
	return nil
}

// startCPUProfile starts a CPU profile into path; the returned function
// stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes a heap profile to path after a GC, so the
// in-use figures reflect live data.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

// samplingBudget derives the configuration-sampling budget: explicit when
// given, otherwise generous — the §VI-B qualifying filters accept only a
// small fraction of random configurations (see DESIGN.md §3).
func samplingBudget(explicit, configs int) int {
	if explicit > 0 {
		return explicit
	}
	budget := 100 * configs
	if budget < 1000 {
		budget = 1000
	}
	return budget
}

// writeSVGs renders charts into dir as <name>.svg; no-op when dir is empty.
func writeSVGs(dir string, charts map[string]*plot.Chart) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return experiment.WriteSVGs(charts, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, name+".svg"))
	})
}

func writeCSV(dir, name string, outcomes []experiment.ConfigOutcome) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiment.WriteCSV(f, outcomes)
}
