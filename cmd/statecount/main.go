// Command statecount evaluates the model state-space sizes of §IV: the
// basic model's closed form (§IV-A2) and the compact model's subset count
// (§IV-B), for given rule counts, timeouts, and cache capacity. The
// subset count is an upper bound: a compact model keeps only the subsets
// of its installable rules, those some flow's highest-priority cover.
//
// Usage:
//
//	statecount -rules 10 -timeout 100 -cache 8
package main

import (
	"flag"
	"fmt"
	"os"

	"flowrecon/internal/core"
	"flowrecon/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("statecount", flag.ContinueOnError)
	numRules := fs.Int("rules", 10, "number of rules |Rules|")
	timeout := fs.Int("timeout", 100, "per-rule timeout t_j in steps")
	cache := fs.Int("cache", 8, "switch cache capacity n")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and pprof on this address after computing (blocks)")
	telOut := fs.String("telemetry-out", "", "write the telemetry snapshot (state-count gauges) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *numRules < 1 || *timeout < 1 || *cache < 1 {
		return fmt.Errorf("all parameters must be ≥ 1")
	}
	touts := make([]int, *numRules)
	for i := range touts {
		touts[i] = *timeout
	}
	basic := core.BasicStateCount(touts, *cache)
	compact := core.CompactStateCount(*numRules, *cache)
	fmt.Printf("|Rules| = %d, t_j = %d steps, n = %d\n", *numRules, *timeout, *cache)
	fmt.Printf("basic model states (closed form, §IV-A2): %.4g\n", basic)
	fmt.Printf("compact model states (§IV-B):             %d\n", compact)
	fmt.Printf("reduction factor:                          %.4g×\n", basic/float64(compact))

	if *telAddr != "" || *telOut != "" {
		reg := telemetry.NewRegistry()
		reg.Gauge("statecount_rules").Set(int64(*numRules))
		reg.Gauge("statecount_cache").Set(int64(*cache))
		reg.Gauge("statecount_states", "model", "compact").Set(int64(compact))
		if basic < float64(1<<62) {
			// The basic count explodes combinatorially; only a gauge-sized
			// value is exported (the printed %.4g is always exact enough).
			reg.Gauge("statecount_states", "model", "basic").Set(int64(basic))
		}
		if *telOut != "" {
			if err := telemetry.WriteSnapshotFile(*telOut, reg); err != nil {
				return err
			}
			fmt.Printf("telemetry snapshot written to %s\n", *telOut)
		}
		if *telAddr != "" {
			srv, err := telemetry.Serve(*telAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("telemetry on http://%s/metrics — ctrl-C to exit\n", srv.Addr())
			select {}
		}
	}
	return nil
}
