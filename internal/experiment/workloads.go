package experiment

import (
	"fmt"
	"io"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/stats"
)

// The workload-robustness experiment (EXPERIMENTS.md §17): the attacker
// fits a Poisson model (§IV-A1), so every departure from Poisson —
// heavy-tailed interarrivals, diurnal swings, flash crowds, real
// captures — is model misspecification. This runner plays the identical
// attack (same configuration, same trial seeds, same probe draws)
// against each traffic source at the same long-run mean rate, so the
// accuracy column isolates exactly the independence assumption.

// WorkloadRow is one traffic source's outcome.
type WorkloadRow struct {
	// Name labels the workload; Spec is the TraceSourceSpec that
	// reproduces it.
	Name string
	Spec TraceSourceSpec
	// Results are the per-attacker outcomes on this workload.
	Results []AttackerResult
	// FPR is the defender's benign false-positive measurement on the same
	// workload, with the baseline trained on Poisson traffic.
	FPR FPRResult
}

// WorkloadComparison is the full §17 result set.
type WorkloadComparison struct {
	Rows    []WorkloadRow
	Trials  int
	Probes  int
	Seed    int64
	FPRRuns int
}

// StandardWorkloads returns the §17 roster: the paper's Poisson model,
// then five independence-breaking sources at the same mean rate.
func StandardWorkloads() []WorkloadRow {
	return []WorkloadRow{
		{Name: "poisson", Spec: TraceSourceSpec{Kind: "poisson"}},
		{Name: "bursty(4x,2s/6s)", Spec: TraceSourceSpec{Kind: "bursty"}},
		{Name: "pareto(α=1.5)", Spec: TraceSourceSpec{Kind: "pareto", Alpha: 1.5}},
		{Name: "lognormal(σ=1.5)", Spec: TraceSourceSpec{Kind: "lognormal", Sigma: 1.5}},
		{Name: "diurnal(amp 0.6)", Spec: TraceSourceSpec{Kind: "diurnal", DiurnalAmp: 0.6}},
		{Name: "flash-crowd(8x)", Spec: TraceSourceSpec{Kind: "flash", FlashFactor: 8}},
	}
}

// RunWorkloadComparisonRows runs the identical attack against every
// row's workload (StandardWorkloads for the §17 roster; the -workload CLI
// flag compares Poisson against one chosen shape), with its model built
// in b (nil for none). Each row re-seeds the trial loop with the same
// seed, so the rows differ only in the traffic the windows contain; the
// per-row FPR (fprTrials benign windows, none when 0) reuses a
// Poisson-trained detector baseline, matching how a deployed defender
// would actually be provisioned.
func RunWorkloadComparisonRows(p Params, seed int64, trials, probes, fprTrials int, rows []WorkloadRow, b *core.Builds) (*WorkloadComparison, error) {
	rng := stats.NewRNG(seed)
	nc, err := sampleConfig(p, nil, rng, b)
	if err != nil {
		return nil, fmt.Errorf("workload comparison config: %w", err)
	}
	var dcfg detect.Config
	if fprTrials > 0 {
		baseline, err := TrainDetectBaseline(nc, detectBaselineWindows, rng.Fork(), nil)
		if err != nil {
			return nil, err
		}
		dcfg = DetectConfigFor(nc, baseline)
	}
	// Attackers keep no state across trials, so one roster serves every
	// row.
	attackers, err := StandardAttackers(nc, probes)
	if err != nil {
		return nil, err
	}

	cmp := &WorkloadComparison{Rows: rows, Trials: trials, Probes: probes, Seed: seed, FPRRuns: fprTrials}
	for i := range cmp.Rows {
		row := &cmp.Rows[i]
		source, err := row.Spec.Source()
		if err != nil {
			return nil, err
		}
		runner := NewTrialRunner(nc, attackers, DefaultMeasurement(), RunnerOptions{Source: source})
		row.Results, err = runner.RunTrials(trials, seed+1, 1)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", row.Name, err)
		}
		if fprTrials > 0 {
			row.FPR, err = BenignFPR(nc, dcfg, fprTrials, stats.NewRNG(seed+2), source)
			if err != nil {
				return nil, fmt.Errorf("workload %s fpr: %w", row.Name, err)
			}
		}
	}
	return cmp, nil
}

// WriteWorkloads renders the comparison as a text table.
func WriteWorkloads(w io.Writer, cmp *WorkloadComparison) error {
	if _, err := fmt.Fprintf(w, "Workload robustness (%d trials, %d probes, seed %d)\n", cmp.Trials, cmp.Probes, cmp.Seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-20s", "workload")
	if len(cmp.Rows) > 0 {
		for _, r := range cmp.Rows[0].Results {
			fmt.Fprintf(w, "  %-16s", r.Name)
		}
	}
	fmt.Fprintf(w, "  %s\n", "benign FPR")
	for _, row := range cmp.Rows {
		fmt.Fprintf(w, "  %-20s", row.Name)
		for _, r := range row.Results {
			fmt.Fprintf(w, "  %-16.3f", r.Accuracy())
		}
		if _, err := fmt.Fprintf(w, "  %d/%d (%.2f%%)\n", row.FPR.Flagged, row.FPR.Sources, 100*row.FPR.Rate()); err != nil {
			return err
		}
	}
	return nil
}
