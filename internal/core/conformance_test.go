package core

// Statistical conformance of the exact basic model (§IV-A) against the
// continuous-time switch table and the compact model, using the
// internal/conftest harness.

import (
	"testing"

	"flowrecon/internal/conftest"
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
func conformanceConfig(t *testing.T) Config {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 8},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 12},
		{Name: "r2", Cover: flows.SetOf(3), Priority: 1, Timeout: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Rules:     rs,
		Rates:     []float64{0.3, 0.2, 0.5, 0.4},
		Delta:     0.05,
		CacheSize: 2,
	}
}

// tableMask replays one Poisson window through a fresh continuous-time
// table and reads the cached-rule bitmask at the horizon.
func tableMask(t *testing.T, cfg Config, horizon float64, rng *stats.RNG) uint64 {
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
// distribution predicts. The chi-square must not reject below
// conftest.PFloor — see that package's comment for why the floor is
// loose. A structural bug
// (wrong eviction victim, broken idle refresh, clock off-by-one) drives
// the p-value to ~0 and fails decisively.
func TestTableOccupancyMatchesBasicModel(t *testing.T) {
	cfg := conformanceConfig(t)
	const (
		steps   = 240 // 12 s: several timeout cycles past the transient
		windows = 1500
	)
	horizon := float64(steps) * cfg.Delta

	model, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	dT := model.InitialDist()
	model.EvolveInPlace(dT, steps)
	predicted := conftest.ProjectMasks(model, dT)

	counts := make(map[uint64]int)
	rng := stats.NewRNG(101)
	for w := 0; w < windows; w++ {
		counts[tableMask(t, cfg, horizon, rng.Fork())]++
	}
	empirical := make(map[uint64]float64, len(counts))
	for m, c := range counts {
		empirical[m] = float64(c) / windows
	}

	masks, _, pv := conftest.AlignMasks(empirical, predicted)
	obs := make([]int, len(masks))
	for i, m := range masks {
		obs[i] = counts[m]
	}
	res, err := conftest.ChiSquareGoF(obs, pv, conftest.MinExpected)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("occupancy GoF: χ²=%.2f dof=%d p=%.4g bins=%d pooled=%d n=%d",
		res.Stat, res.DoF, res.P, res.Bins, res.Pooled, res.N)
	if res.P < conftest.PFloor {
		for i, m := range masks {
			t.Logf("mask %04b: empirical %.4f model %.4f", m, empirical[m], pv[i])
		}
		t.Fatalf("switch occupancy rejected against BasicModel: p=%.3g < %.0e", res.P, conftest.PFloor)
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
	model, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	dT := model.InitialDist()
	model.EvolveInPlace(dT, steps)
	predicted := conftest.ProjectMasks(model, dT)

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
	masks, _, pv := conftest.AlignMasks(empirical, predicted)
	obs := make([]int, len(masks))
	for i, m := range masks {
		obs[i] = counts[m]
	}
	res, err := conftest.ChiSquareGoF(obs, pv, conftest.MinExpected)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= conftest.PFloor {
		t.Fatalf("doubled timeouts not detected: p=%.3g", res.P)
	}
}

// TestCompactWithinTVDBudget: the compact model's cached-rule-mask
// distribution stays within conftest.CompactTVDBudget of the exact basic
// model at every checked horizon — the quantified price of the §IV-B
// state-space compression on the observable the attack actually uses.
func TestCompactWithinTVDBudget(t *testing.T) {
	cfg := conformanceConfig(t)
	basic, err := NewBasicModel(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := NewCompactModel(cfg, nil)
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
		_, bv, cv := conftest.AlignMasks(conftest.ProjectMasks(basic, db), conftest.ProjectMasks(compact, dc))
		d := conftest.TVD(bv, cv)
		t.Logf("step %3d: mask TVD(basic, compact) = %.4f (budget %.2f)", step, d, conftest.CompactTVDBudget)
		if d > conftest.CompactTVDBudget {
			t.Fatalf("step %d: compact model drifted %.4f > budget %.2f", step, d, conftest.CompactTVDBudget)
		}
	}
}
