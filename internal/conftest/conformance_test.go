package conftest

import (
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// conformanceConfig is the shared scenario of the switch-vs-model
// conformance tests: three overlapping idle-timeout rules contending for
// a two-slot cache, with per-step arrival probabilities λ_f·Δ in the
// 0.02–0.06 range the paper's discretization assumes (two arrivals per
// step improbable).
// The step Δ is deliberately small (λ_f·Δ ≤ 0.025): the chain's
// one-event-per-step idealization — timeout transitions consume a step
// of modeled time that costs the real switch nothing — introduces an
// occupancy bias of order λ·Δ, and the chi-square below is powerful
// enough to see it at coarser steps.
func conformanceConfig(t *testing.T) core.Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 8},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 12},
		{Name: "r2", Cover: flows.SetOf(3), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Rules:     rs,
		Rates:     []float64{0.3, 0.2, 0.5, 0.4},
		Delta:     0.05,
		CacheSize: 2,
	}
}

// tableMask replays one Poisson window through a fresh continuous-time
// table and reads the cached-rule bitmask at the horizon.
func tableMask(t *testing.T, cfg core.Config, horizon float64, rng *stats.RNG) uint64 {
	t.Helper()
	trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: cfg.Rates, Duration: horizon}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := flowtable.New(cfg.Rules, cfg.CacheSize, cfg.Delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range trace.Arrivals() {
		if _, hit := tbl.Lookup(a.Flow, a.Time); !hit {
			if j, covered := cfg.Rules.HighestCovering(a.Flow); covered {
				tbl.Install(j, a.Time)
			}
		}
	}
	var mask uint64
	for j := 0; j < cfg.Rules.Len(); j++ {
		if tbl.Contains(j, horizon) {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// TestTableOccupancyMatchesBasicModel is the core conformance check: the
// continuous-time switch table, fed real Poisson traffic, occupies
// cached-rule states with the frequencies the BasicModel's evolved
// distribution predicts. The chi-square must not reject below PFloor —
// see the package comment for why the floor is loose. A structural bug
// (wrong eviction victim, broken idle refresh, clock off-by-one) drives
// the p-value to ~0 and fails decisively.
func TestTableOccupancyMatchesBasicModel(t *testing.T) {
	cfg := conformanceConfig(t)
	const (
		steps   = 240 // 12 s: several timeout cycles past the transient
		windows = 1500
	)
	horizon := float64(steps) * cfg.Delta

	model, err := core.NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	dT := model.InitialDist()
	model.EvolveInPlace(dT, steps)
	predicted := ProjectMasks(model, dT)

	counts := make(map[uint64]int)
	rng := stats.NewRNG(101)
	for w := 0; w < windows; w++ {
		counts[tableMask(t, cfg, horizon, rng.Fork())]++
	}
	empirical := make(map[uint64]float64, len(counts))
	for m, c := range counts {
		empirical[m] = float64(c) / windows
	}

	masks, _, pv := AlignMasks(empirical, predicted)
	obs := make([]int, len(masks))
	for i, m := range masks {
		obs[i] = counts[m]
	}
	res, err := ChiSquareGoF(obs, pv, MinExpected)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("occupancy GoF: χ²=%.2f dof=%d p=%.4g bins=%d pooled=%d n=%d",
		res.Stat, res.DoF, res.P, res.Bins, res.Pooled, res.N)
	if res.P < PFloor {
		for i, m := range masks {
			t.Logf("mask %04b: empirical %.4f model %.4f", m, empirical[m], pv[i])
		}
		t.Fatalf("switch occupancy rejected against BasicModel: p=%.3g < %.0e", res.P, PFloor)
	}
}

// TestOccupancyHarnessDetectsBrokenSwitch: the harness has teeth — the
// same machinery decisively rejects a switch whose timeouts are twice
// the modeled duration.
func TestOccupancyHarnessDetectsBrokenSwitch(t *testing.T) {
	cfg := conformanceConfig(t)
	const (
		steps   = 240
		windows = 800
	)
	horizon := float64(steps) * cfg.Delta
	model, err := core.NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	dT := model.InitialDist()
	model.EvolveInPlace(dT, steps)
	predicted := ProjectMasks(model, dT)

	// The "broken" switch holds rules twice as long as the model says.
	broken := cfg
	broken.Delta = cfg.Delta * 2
	counts := make(map[uint64]int)
	rng := stats.NewRNG(102)
	for w := 0; w < windows; w++ {
		counts[tableMask(t, broken, horizon, rng.Fork())]++
	}
	empirical := make(map[uint64]float64, len(counts))
	for m, c := range counts {
		empirical[m] = float64(c) / windows
	}
	masks, _, pv := AlignMasks(empirical, predicted)
	obs := make([]int, len(masks))
	for i, m := range masks {
		obs[i] = counts[m]
	}
	res, err := ChiSquareGoF(obs, pv, MinExpected)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= PFloor {
		t.Fatalf("doubled timeouts not detected: p=%.3g", res.P)
	}
}

// TestCompactWithinTVDBudget: the compact model's cached-rule-mask
// distribution stays within CompactTVDBudget of the exact basic model at
// every checked horizon — the quantified price of the §IV-B state-space
// compression on the observable the attack actually uses.
func TestCompactWithinTVDBudget(t *testing.T) {
	cfg := conformanceConfig(t)
	basic, err := core.NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := core.NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if compact.NumStates() >= basic.NumStates() {
		t.Fatalf("compact model is not compact: %d vs %d states", compact.NumStates(), basic.NumStates())
	}
	db, dc := basic.InitialDist(), compact.InitialDist()
	checked := 0
	for _, step := range []int{20, 80, 240} {
		basic.EvolveInPlace(db, step-checked)
		compact.EvolveInPlace(dc, step-checked)
		checked = step
		_, bv, cv := AlignMasks(ProjectMasks(basic, db), ProjectMasks(compact, dc))
		d := TVD(bv, cv)
		t.Logf("step %3d: mask TVD(basic, compact) = %.4f (budget %.2f)", step, d, CompactTVDBudget)
		if d > CompactTVDBudget {
			t.Fatalf("step %d: compact model drifted %.4f > budget %.2f", step, d, CompactTVDBudget)
		}
	}
}

// TestAccuracyDegradesSmoothlyUnderLoss is the Fig.6-style robustness
// claim: as probe loss rises 0% → 5% the model attacker's accuracy
// degrades smoothly — no cliff at any step — and stays well above the
// coin-flip floor. Loss draws come from fault streams (never the trial
// RNG), so each loss level replays the same trials with only the faults
// changed.
func TestAccuracyDegradesSmoothlyUnderLoss(t *testing.T) {
	nc, err := experiment.GenerateConfig(experiment.SmallParams(), nil, stats.NewRNG(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	losses := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	acc := make([]float64, len(losses))
	for i, loss := range losses {
		attackers, err := experiment.StandardAttackers(nc, 2)
		if err != nil {
			t.Fatal(err)
		}
		runner := experiment.NewTrialRunner(nc, attackers, experiment.DefaultMeasurement(), experiment.RunnerOptions{
			Faults: faults.Profile{Seed: 21, LossProb: loss},
		})
		res, err := runner.RunTrials(trials, 13, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc[i] = res[1].Accuracy() // the model attacker
		t.Logf("loss %.0f%%: model accuracy %.3f", loss*100, acc[i])
	}
	for i := 1; i < len(acc); i++ {
		if drop := acc[i-1] - acc[i]; drop > 0.10 {
			t.Fatalf("accuracy cliff between %.0f%% and %.0f%% loss: %.3f → %.3f",
				losses[i-1]*100, losses[i]*100, acc[i-1], acc[i])
		}
	}
	if acc[len(acc)-1] < acc[0]-0.15 {
		t.Fatalf("5%% loss collapsed accuracy: %.3f → %.3f", acc[0], acc[len(acc)-1])
	}
	if acc[len(acc)-1] < 0.55 {
		t.Fatalf("accuracy at 5%% loss %.3f barely beats a coin flip", acc[len(acc)-1])
	}
}
