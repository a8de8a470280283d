// Idslogging reproduces the paper's IDS-reconnaissance motivation (§I,
// §III-A): an attacker who just attempted an intrusion wants to know
// whether the IDS logged a record to the logging database — i.e. whether
// the IDS→logDB flow occurred recently. The logging flow shares wildcard
// rules with other datacenter traffic, so the naive probe is ambiguous;
// the model finds a better one.
//
//	go run ./examples/idslogging
package main

import (
	"fmt"
	"log"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// Flow classes in the monitoring subnet.
const (
	flowIDSLog  = flows.ID(0) // IDS → logging DB: the target
	flowBackup  = flows.ID(1) // backup agent → logging DB (same /30 as IDS)
	flowMetrics = flows.ID(2) // metrics collector → logging DB
	flowWebLog  = flows.ID(3) // web frontend → logging DB
	numFlows    = 4
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The operator's policy: one wildcard rule for the security /30 (IDS
	// and the backup agent), one for the chatty application loggers, and
	// a narrower metrics rule shadowed by it.
	policy, err := rules.NewSet([]rules.Rule{
		{Name: "secnet→logdb", Cover: flows.SetOf(flowIDSLog, flowBackup), Priority: 3, Timeout: 80},
		{Name: "apps→logdb", Cover: flows.SetOf(flowMetrics, flowWebLog), Priority: 2, Timeout: 120},
		{Name: "metrics→logdb", Cover: flows.SetOf(flowMetrics), Priority: 1, Timeout: 40},
	})
	if err != nil {
		return err
	}
	rates := []float64{
		0.08, // IDS logs are event-driven and rare — exactly what we probe for
		0.02, // backups are infrequent
		1.5,  // metrics flow constantly
		0.6,  // web logs are common
	}
	cfg := core.Config{Rules: policy, Rates: rates, Delta: 0.1, CacheSize: 2}

	const windowSeconds = 10.0
	steps := experiment.WindowSteps(windowSeconds, cfg.Delta)
	sel, err := core.NewCompactSelector(cfg, flowIDSLog, steps, nil)
	if err != nil {
		return err
	}

	fmt.Printf("did the IDS log a record in the last %.0fs?  prior P(no) = %.3f\n\n", windowSeconds, sel.PAbsent())
	fmt.Println("candidate probes:")
	names := []string{"IDS→logDB (the target)", "backup→logDB", "metrics→logDB", "weblog→logDB"}
	for _, f := range sel.AllFlows() {
		e := sel.Evaluate(f)
		fmt.Printf("  %-24s gain=%.4f bits  P(hit)=%.3f\n", names[f], e.Gain, e.PHit)
	}
	best, _ := sel.Best(sel.AllFlows())
	fmt.Printf("\nmodel-selected probe: %s\n\n", names[best.Flow])

	// Measure both strategies against ground truth over simulated
	// traffic, reusing the experiment trial machinery.
	nc := &experiment.NetworkConfig{
		Params: experiment.Params{
			NumFlows: numFlows, NumRules: policy.Len(), CacheSize: cfg.CacheSize,
			Delta: cfg.Delta, WindowSeconds: windowSeconds,
			AbsenceLo: 0, AbsenceHi: 1,
		},
		Rules: policy, Rates: rates, Target: flowIDSLog, Core: cfg, Selector: sel,
	}
	model, err := core.NewModelAttacker(sel, sel.AllFlows(), 1)
	if err != nil {
		return err
	}
	pair, err := core.NewModelAttacker(sel, sel.AllFlows(), 2)
	if err != nil {
		return err
	}
	attackers := []core.Attacker{
		&core.NaiveAttacker{TargetFlow: flowIDSLog},
		model,
		pair,
	}
	runner := experiment.NewTrialRunner(nc, attackers, experiment.DefaultMeasurement(), experiment.RunnerOptions{})
	results, err := runner.RunTrials(400, 7, 1)
	if err != nil {
		return err
	}
	fmt.Println("accuracy over 400 trials of simulated datacenter traffic:")
	for _, r := range results {
		fmt.Printf("  %-12s %5.1f%%  (TP=%d TN=%d FP=%d FN=%d)\n",
			r.Name, 100*r.Accuracy(), r.TruePos, r.TrueNeg, r.FalsePos, r.FalseNeg)
	}

	// Show a single concrete inference, tied back to raw traffic.
	trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: rates, Duration: windowSeconds}, stats.NewRNG(99))
	if err != nil {
		return err
	}
	truth := trace.OccurredWithin(flowIDSLog, windowSeconds, windowSeconds)
	fmt.Printf("\nexample window: %d arrivals; IDS actually logged: %v\n", trace.Len(), truth)
	return nil
}
