// Command leakage runs the §VII-B3 defense analysis: it measures how much
// a rule structure leaks about each flow (using the attacker's own Markov
// model as the meter) and optionally coarsens the structure by merging
// rules until the worst-case leakage falls below a target.
//
// Usage:
//
//	leakage -seed 3 -window 10
//	leakage -seed 3 -coarsen -target-bits 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"flowrecon/internal/core"
	"flowrecon/internal/defense"
	"flowrecon/internal/experiment"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leakage", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "random seed for the policy and rates")
		numFlows   = fs.Int("flows", 8, "flow universe size")
		numRules   = fs.Int("rules", 6, "policy size")
		maskBits   = fs.Int("maskbits", 3, "wildcard width")
		cache      = fs.Int("cache", 3, "switch table capacity")
		delta      = fs.Float64("delta", 0.1, "model step Δ in seconds")
		window     = fs.Float64("window", 5, "attack window in seconds")
		coarsen    = fs.Bool("coarsen", false, "greedily merge rules to reduce leakage")
		targetBits = fs.Float64("target-bits", 0.02, "coarsening target for worst-case leakage")
		maxMerges  = fs.Int("max-merges", 3, "coarsening budget")
		par        = fs.Int("parallelism", 1, "leakage-profiling worker goroutines, for the profile and each -coarsen candidate; the output is identical at every level")
		telAddr    = fs.String("telemetry-addr", "", "serve /metrics, /debug/live and pprof on this address while the analysis runs")
		telOut     = fs.String("telemetry-out", "", "write the final telemetry snapshot (model build/evolve/cache counters) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var builds *core.Builds
	if *telAddr != "" || *telOut != "" {
		reg := telemetry.NewRegistry()
		// The leakage meter is the attacker's own Markov model, so the
		// model layer's counters are the interesting ones here.
		builds = core.NewBuilds(reg, false)
		if *telAddr != "" {
			srv, err := telemetry.Serve(*telAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("telemetry on http://%s/metrics (live: /debug/live, pprof: /debug/pprof/)\n", srv.Addr())
		}
		if *telOut != "" {
			path := *telOut
			defer func() {
				if err := telemetry.WriteSnapshotFile(path, reg); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
		}
	}

	rng := stats.NewRNG(*seed)
	gc := rules.GenerateConfig{
		NumFlows: *numFlows,
		NumRules: *numRules,
		MaskBits: *maskBits,
		Timeouts: rules.DefaultGenerateConfig(*delta).Timeouts,
	}
	policy, err := rules.Generate(gc, rng)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Rules:     policy,
		Rates:     workload.UniformRates(*numFlows, rng),
		Delta:     *delta,
		CacheSize: *cache,
	}
	steps := experiment.WindowSteps(*window, *delta)

	fmt.Printf("policy (%d rules over %d flows, cache %d):\n", policy.Len(), *numFlows, *cache)
	for _, r := range policy.Rules() {
		fmt.Printf("  %s\n", r)
	}

	prof, err := defense.MeasureLeakage(cfg, steps, *par, builds)
	if err != nil {
		return err
	}
	fmt.Printf("\nleakage profile (window %.1fs): max %.4f bits, mean %.4f bits\n", *window, prof.MaxGain, prof.MeanGain)
	fmt.Println("flows an attacker learns most about:")
	for i, fl := range prof.RankTargets() {
		if i >= 5 {
			break
		}
		fmt.Printf("  target flow %2d: best probe %2d leaks %.4f of %.4f bits\n",
			fl.Target, fl.BestProbe, fl.Gain, fl.PriorEntropy)
	}

	if !*coarsen {
		return nil
	}
	fmt.Printf("\ncoarsening toward ≤ %.3f bits (≤ %d merges)…\n", *targetBits, *maxMerges)
	steps2, err := defense.Coarsen(cfg, prof, steps, *par, *targetBits, *maxMerges, builds)
	if err != nil {
		return err
	}
	if len(steps2) == 0 {
		fmt.Println("no merge reduces the worst-case leakage")
		return nil
	}
	for i, st := range steps2 {
		fmt.Printf("merge %d: rules %d+%d → max leakage %.4f bits (%d rules left)\n",
			i+1, st.MergedA, st.MergedB, st.Profile.MaxGain, st.Rules.Len())
	}
	final := steps2[len(steps2)-1]
	fmt.Println("\nfinal policy:")
	for _, r := range final.Rules.Rules() {
		fmt.Printf("  %s\n", r)
	}
	return nil
}
