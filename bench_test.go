// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus ablations of the design choices called out in DESIGN.md.
// Figure benchmarks run at a reduced scale so `go test -bench=.` finishes
// on a laptop; cmd/experiments runs the paper-scale versions.
//
// Custom metrics: accuracy values are reported via b.ReportMetric so the
// bench output doubles as a shape check against the paper (see
// EXPERIMENTS.md).
package flowrecon_test

import (
	"bytes"
	"io"
	"strconv"
	"testing"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/ingest"
	"flowrecon/internal/netsim"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// benchParams is the reduced §VI-A configuration used by the figure
// benchmarks: 8 flows, 6 of 27 candidate rules, cache 3, 5 s window.
func benchParams() experiment.Params {
	return experiment.Params{
		NumFlows:      8,
		NumRules:      6,
		MaskBits:      3,
		CacheSize:     3,
		Delta:         0.05,
		WindowSeconds: 5,
		USum:          core.USumParams{ExactLimit: 20000, MCSamples: 600, Seed: 1},
		AbsenceLo:     0.02,
		AbsenceHi:     0.98,
	}
}

// benchCoreConfig is a mid-sized model configuration for the model-level
// benchmarks.
func benchCoreConfig(b *testing.B) core.Config {
	b.Helper()
	rs, err := rules.Generate(rules.GenerateConfig{
		NumFlows: 8, NumRules: 6, MaskBits: 3,
		Timeouts: []int{2, 4, 6, 8, 10},
	}, stats.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	return core.Config{
		Rules:     rs,
		Rates:     workloadRates(8, 4),
		Delta:     0.05,
		CacheSize: 3,
	}
}

func workloadRates(n int, seed int64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// BenchmarkStateCount evaluates the §IV-A2 closed form at the paper's
// example parameters (|Rules|=10, t=100, n=8).
func BenchmarkStateCount(b *testing.B) {
	touts := make([]int, 10)
	for i := range touts {
		touts[i] = 100
	}
	var v float64
	for i := 0; i < b.N; i++ {
		v = core.BasicStateCount(touts, 8)
	}
	b.ReportMetric(v, "states")
}

// BenchmarkBasicModelBuild explores and assembles the exact §IV-A chain
// for a small configuration (the scale at which it is tractable at all).
func BenchmarkBasicModelBuild(b *testing.B) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 3, Timeout: 3},
		{Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 4},
		{Cover: flows.SetOf(2), Priority: 1, Timeout: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: []float64{0.8, 0.5, 0.9}, Delta: 0.2, CacheSize: 2}
	var states int
	for i := 0; i < b.N; i++ {
		m, err := core.NewBasicModel(cfg, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkCompactModelBuildPaperScale assembles the §IV-B chain at the
// paper's evaluation scale: |Rules| = 12, n = 6 → 2510 subset states.
// The u-sum memo is primed by an untimed build first, so the reported
// time is the steady-state cost of the builds the pipeline actually
// repeats — the conditioned chain pair M/M₀, GainVsWindow sweeps, and
// the defense profiler all rebuild over a warm memo. See
// BenchmarkCompactModelBuildCold for the uncached first-build cost.
func BenchmarkCompactModelBuildPaperScale(b *testing.B) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	params := core.USumParams{ExactLimit: 20000, MCSamples: 800, Seed: 1}
	core.ResetUSumMemo()
	if _, err := core.NewCompactModel(cfg, params); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		m, err := core.NewCompactModel(cfg, params)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkCompactModelBuildCold is the uncached build number: the u-sum
// memo is reset every iteration, so each build pays the full transition
// estimation cost. BenchmarkCompactModelBuildPaperScale keeps the memo
// warm across iterations — the way repeated builds behave in practice
// (the conditioned chain pair, GainVsWindow, the defense profiler).
func BenchmarkCompactModelBuildCold(b *testing.B) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	params := core.USumParams{ExactLimit: 20000, MCSamples: 800, Seed: 1}
	var states int
	for i := 0; i < b.N; i++ {
		core.ResetUSumMemo()
		m, err := core.NewCompactModel(cfg, params)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkEvolve measures Eqn (8): I_T = Aᵀ I₀ over the paper's probe
// window (T = 600 steps at Δ = 25 ms).
func BenchmarkEvolve(b *testing.B) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	m, err := core.NewCompactModel(cfg, core.USumParams{ExactLimit: 20000, MCSamples: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d0 := m.InitialDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evolve(d0, 600)
	}
}

// BenchmarkProbeSelection measures single-probe information-gain search
// over every candidate flow (§V-A).
func BenchmarkProbeSelection(b *testing.B) {
	cfg := benchCoreConfig(b)
	sel, err := core.NewCompactSelector(cfg, 0, 20, core.DefaultUSumParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gain float64
	for i := 0; i < b.N; i++ {
		best, ok := sel.Best(sel.AllFlows())
		if !ok {
			b.Fatal("no probe")
		}
		gain = best.Gain
	}
	b.ReportMetric(gain, "gain-bits")
}

// BenchmarkMultiProbeSelection measures the exhaustive two-probe search
// (§V-B).
func BenchmarkMultiProbeSelection(b *testing.B) {
	cfg := benchCoreConfig(b)
	sel, err := core.NewCompactSelector(cfg, 0, 20, core.DefaultUSumParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gain float64
	for i := 0; i < b.N; i++ {
		best, ok := sel.BestSequence(sel.AllFlows(), 2)
		if !ok {
			b.Fatal("no sequence")
		}
		gain = best.Gain
	}
	b.ReportMetric(gain, "gain-bits")
}

// BenchmarkLatencyTable regenerates the §VI-A timing characterization:
// hit/miss RTT distributions through the simulated fabric and through the
// real-TCP OpenFlow pair, with the 1 ms threshold error rate.
func BenchmarkLatencyTable(b *testing.B) {
	var report *experiment.LatencyReport
	for i := 0; i < b.N; i++ {
		var err error
		report, err = experiment.MeasureLatency(300, 60, 5, 3900*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.SimHitMs.Mean, "hit-ms")
	b.ReportMetric(report.SimMissMs.Mean, "miss-ms")
	b.ReportMetric(100*report.SimMisclassified, "sim-miscls-%")
	b.ReportMetric(100*report.OFMisclassified, "of-miscls-%")
}

// runFig6 produces the Figure 6 data at bench scale.
func runFig6(b *testing.B) *experiment.Fig6Result {
	b.Helper()
	res, err := experiment.RunFig6(experiment.Fig6Options{
		Params:          benchParams(),
		Configs:         8,
		TrialsPerConfig: 60,
		MaxAttempts:     600,
		Seed:            3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig6a regenerates Figure 6a: model vs naive accuracy across
// target-absence buckets, over configurations where the optimal probe is
// not the target flow.
func BenchmarkFig6a(b *testing.B) {
	var res *experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		res = runFig6(b)
	}
	b.ReportMetric(res.MeanModel, "model-acc")
	b.ReportMetric(res.MeanNaive, "naive-acc")
	b.ReportMetric(res.MeanModel-res.MeanNaive, "improvement")
}

// BenchmarkFig6b regenerates Figure 6b: the CDF of per-configuration
// additive improvement over the naive attacker.
func BenchmarkFig6b(b *testing.B) {
	var res *experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		res = runFig6(b)
	}
	q := res.ImprovementQuantiles([]float64{0.05, 0.15})
	b.ReportMetric(100*q[0.05], "ge5pct-%configs")
	b.ReportMetric(100*q[0.15], "ge15pct-%configs")
}

// runFig7 produces the Figure 7 data at bench scale.
func runFig7(b *testing.B) *experiment.Fig7Result {
	b.Helper()
	res, err := experiment.RunFig7(experiment.Fig7Options{
		Params:          benchParams(),
		Configs:         8,
		TrialsPerConfig: 60,
		MaxAttempts:     600,
		Seed:            4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig7a regenerates Figure 7a: restricted-model vs naive vs
// random accuracy bucketed by the number of rules covering the target.
func BenchmarkFig7a(b *testing.B) {
	var res *experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		res = runFig7(b)
	}
	model, naive, random := fig7Means(res)
	b.ReportMetric(model, "restricted-acc")
	b.ReportMetric(naive, "naive-acc")
	b.ReportMetric(random, "random-acc")
}

// BenchmarkFig7b regenerates Figure 7b: the same three attackers bucketed
// by target-absence probability.
func BenchmarkFig7b(b *testing.B) {
	var res *experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		res = runFig7(b)
	}
	model, naive, random := fig7Means(res)
	b.ReportMetric(model-random, "model-vs-random")
	b.ReportMetric(model-naive, "model-vs-naive")
}

func fig7Means(res *experiment.Fig7Result) (model, naive, random float64) {
	n := float64(len(res.Outcomes))
	for _, o := range res.Outcomes {
		naive += o.Accuracy["naive"] / n
		random += o.Accuracy["random"] / n
		for name, acc := range o.Accuracy {
			if name != "naive" && name != "random" {
				model += acc / n
			}
		}
	}
	return model, naive, random
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationUSum compares the exact enumeration and Monte Carlo
// estimation of the §IV-B u-sums on identical states.
func BenchmarkAblationUSum(b *testing.B) {
	cfg := benchCoreConfig(b)
	run := func(b *testing.B, params core.USumParams) {
		var m *core.CompactModel
		for i := 0; i < b.N; i++ {
			var err error
			m, err = core.NewCompactModel(cfg, params)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*m.ExactStateFraction(), "exact-%states")
	}
	b.Run("exact", func(b *testing.B) {
		run(b, core.USumParams{ExactLimit: 1 << 30, MCSamples: 1, Seed: 1})
	})
	b.Run("montecarlo", func(b *testing.B) {
		run(b, core.USumParams{ExactLimit: 0, MCSamples: 800, Seed: 1})
	})
}

// BenchmarkAblationDelta sweeps the model step Δ: smaller steps shrink the
// multi-arrival discretization error at the cost of a longer horizon.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0.1, 0.05, 0.025} {
		b.Run(time.Duration(delta*float64(time.Second)).String(), func(b *testing.B) {
			rs, err := rules.Generate(rules.DefaultGenerateConfig(delta), stats.NewRNG(3))
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Rules: rs, Rates: workloadRates(16, 4), Delta: delta, CacheSize: 6}
			steps := int(5.0 / delta)
			var hit float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewCompactModel(cfg, core.USumParams{ExactLimit: 20000, MCSamples: 400, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				d := m.Evolve(m.InitialDist(), steps)
				hit = m.HitProbability(d, 0)
			}
			b.ReportMetric(hit, "P(hit-f0)")
		})
	}
}

// BenchmarkAblationOrderedVsCanonical measures the state-space cost of the
// paper's ordered cache states against the behaviour-equivalent canonical
// (order-merged) variant.
func BenchmarkAblationOrderedVsCanonical(b *testing.B) {
	rs, err := rules.NewSet([]rules.Rule{
		{Cover: flows.SetOf(0), Priority: 3, Timeout: 4},
		{Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 5},
		{Cover: flows.SetOf(2), Priority: 1, Timeout: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: []float64{0.8, 0.5, 0.9}, Delta: 0.1, CacheSize: 2}
	b.Run("ordered", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			m, err := core.NewBasicModel(cfg, 1<<21)
			if err != nil {
				b.Fatal(err)
			}
			states = m.NumStates()
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("canonical", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			m, err := core.NewBasicModelCanonical(cfg, 1<<21)
			if err != nil {
				b.Fatal(err)
			}
			states = m.NumStates()
		}
		b.ReportMetric(float64(states), "states")
	})
}

// BenchmarkAblationProbeCount compares the information gain of one vs two
// probes on the paper's Figure 2b structure, where the second probe
// genuinely disambiguates overlapping rules.
func BenchmarkAblationProbeCount(b *testing.B) {
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0), Priority: 2, Timeout: 6},
		{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 1, Timeout: 6},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: []float64{0.3, 0.8}, Delta: 0.25, CacheSize: 2}
	sel, err := core.NewCompactSelector(cfg, 0, 20, core.DefaultUSumParams())
	if err != nil {
		b.Fatal(err)
	}
	var single, pair float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single, pair = sel.SequenceGainAtLeastSingle(sel.AllFlows())
	}
	b.ReportMetric(single, "gain1-bits")
	b.ReportMetric(pair, "gain2-bits")
}

// BenchmarkTrialLoopRecording compares one full attack trial (traffic
// generation, table replay, probing, verdicts for the standard
// four-attacker roster) with forensics off (nil recorder — the per-probe
// observer is a nil pointer), with causal spans only, and with the
// complete JSONL recording (belief steps + spans) streamed to a discarded
// writer. "off" must track the uninstrumented trial loop within noise —
// the ISSUE's nil-recorder-is-free contract; the gap to "record" is the
// price of full forensics.
func BenchmarkTrialLoopRecording(b *testing.B) {
	spec := experiment.RecordingSpec{
		Params:      benchParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      1,
		Probes:      2,
		Measurement: experiment.DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		b.Fatal(err)
	}
	attackers, err := experiment.StandardAttackers(nc, spec.Probes)
	if err != nil {
		b.Fatal(err)
	}
	trial := func(b *testing.B, opts experiment.TrialOptions) {
		b.Helper()
		if _, _, err := experiment.RunTrialsOpts(nc, attackers, 1, spec.Measurement, stats.NewRNG(spec.TrialSeed), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trial(b, experiment.TrialOptions{})
		}
	})
	b.Run("spans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trial(b, experiment.TrialOptions{Spans: telemetry.NewSpanRecorder(0)})
		}
	})
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, err := trialrec.NewRecorder(io.Discard, trialrec.Header{Trials: 1})
			if err != nil {
				b.Fatal(err)
			}
			trial(b, experiment.TrialOptions{Recorder: rec})
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrialLoopParallel runs the same 16-trial batch through the
// trial runner at increasing worker counts. Results are identical at
// every level (see internal/experiment/parallel_test.go); the deltas here
// are pure scheduling cost/benefit, so the benchmark doubles as a check
// that the deterministic fan-out machinery stays cheap on one core and a
// speedup probe on many.
func BenchmarkTrialLoopParallel(b *testing.B) {
	spec := experiment.RecordingSpec{
		Params:      benchParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      16,
		Probes:      2,
		Measurement: experiment.DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		b.Fatal(err)
	}
	attackers, err := experiment.StandardAttackers(nc, spec.Probes)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(workerLabel(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiment.RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
					stats.NewRNG(spec.TrialSeed), experiment.TrialOptions{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func workerLabel(n int) string {
	return "workers=" + strconv.Itoa(n)
}

// --- Substrate benchmarks (ISSUE 5) ---

// churnRules builds a large rule set over a 1024-flow universe: one
// exact-match rule per flow at high priority (so 1024 distinct rules are
// installable and a capacity-512 table genuinely churns) plus 128
// overlapping low-priority ternary wildcards, timeouts 1–10 s at
// Δ = 50 ms. This is the regime the overflow-probing attacks of PAPERS.md
// hammer: the table runs at capacity and every miss evicts.
func churnRules(b *testing.B) *rules.Set {
	b.Helper()
	const nflows = 1024
	rng := stats.NewRNG(7)
	specs := make([]rules.Rule, 0, nflows+128)
	for f := 0; f < nflows; f++ {
		specs = append(specs, rules.Rule{
			Name:     "exact",
			Cover:    flows.SetOf(flows.ID(f)),
			Priority: 1 + 128 + f,
			Timeout:  20 * (1 + rng.Intn(10)), // 1..10 s at Δ = 50 ms
		})
	}
	masks := rules.AllTernaryMasks(10)
	rng.Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
	added := 0
	for _, m := range masks {
		if added == 128 {
			break
		}
		cover := m.CoverOf(nflows)
		if cover.Empty() {
			continue
		}
		added++
		specs = append(specs, rules.Rule{
			Name:     m.String(),
			Cover:    cover,
			Priority: added,
			Timeout:  20 * (1 + rng.Intn(10)),
		})
	}
	rs, err := rules.NewSet(specs)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkTableChurn drives a capacity-512 flow table with Poisson
// arrivals over 1024 flows: every op is a Lookup plus, on a miss, the
// reactive Install of the covering rule (evicting at capacity). ns/op is
// the per-arrival cost of the simulation substrate's switch model.
func BenchmarkTableChurn(b *testing.B) {
	rs := churnRules(b)
	const nflows = 1024
	// Pre-draw the arrival process so the timed loop measures only the
	// table: exponential inter-arrivals at 2000 pkt/s over uniform flows.
	rng := stats.NewRNG(11)
	const window = 1 << 14
	arrFlow := make([]flows.ID, window)
	arrGap := make([]float64, window)
	for i := range arrFlow {
		arrFlow[i] = flows.ID(rng.Intn(nflows))
		arrGap[i] = rng.Exp(2000)
	}
	tbl, err := flowtable.New(rs, 512, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	now := 0.0
	// Warm the table to capacity before timing.
	for i := 0; i < window; i++ {
		now += arrGap[i]
		if _, hit := tbl.Lookup(arrFlow[i], now); !hit {
			if j, ok := rs.HighestCovering(arrFlow[i]); ok {
				tbl.Install(j, now)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (window - 1)
		now += arrGap[k]
		f := arrFlow[k]
		if _, hit := tbl.Lookup(f, now); !hit {
			if j, ok := rs.HighestCovering(f); ok {
				tbl.Install(j, now)
			}
		}
	}
	b.ReportMetric(float64(tbl.Len(now)), "occupancy")
}

// BenchmarkRuleMatch measures Set.MatchIn against a fixed cached set on
// the large wildcard universe — the per-packet matching cost inside
// Table.Lookup and the Markov models' transition builders.
func BenchmarkRuleMatch(b *testing.B) {
	rs := churnRules(b)
	cached := make([]bool, rs.Len())
	rng := stats.NewRNG(13)
	for i := 0; i < 512; i++ {
		cached[rng.Intn(rs.Len())] = true
	}
	pred := func(j int) bool { return cached[j] }
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := rs.MatchIn(flows.ID(i&1023), pred); ok {
			hits++
		}
	}
	b.ReportMetric(100*float64(hits)/float64(b.N), "hit-%")
}

// BenchmarkSimScheduler measures the netsim event loop in steady state:
// each iteration schedules four events at staggered future times and
// drains them — the schedule/dispatch cycle every simulated packet pays
// per hop. allocs/op is the headline number: the scheduler must not
// allocate once warm.
func BenchmarkSimScheduler(b *testing.B) {
	s := netsim.NewSim()
	n := 0
	fn := func() { n++ }
	// Warm the internal storage.
	for i := 0; i < 1024; i++ {
		s.After(float64(i)*1e-6, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now()
		s.At(at+3e-6, fn)
		s.At(at+1e-6, fn)
		s.At(at+2e-6, fn)
		s.At(at+1e-6, fn)
		s.Run()
	}
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkDetectorObserve measures the defender's hot path: one
// controller-path observation through the streaming detector (window
// ring-bucket rotation, gap EWMA/Welford update, log-bucket sketch
// insert, scoring). allocs/op is the headline: 0 in steady state — a
// source's first observation allocates its state, nothing after (the
// alloc-gate enforces this in internal/detect). The "nil" variant is the
// disabled detector: every call sites' cost when no defender runs must
// be a single nil check.
func BenchmarkDetectorObserve(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		d := detect.New(detect.DefaultConfig())
		for s := 0; s < 8; s++ {
			d.Observe(s, 0, 1.0, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		t := 0.0
		for i := 0; i < b.N; i++ {
			t += 0.37
			d.Observe(i&7, t, 1.0, i&1 == 0)
		}
	})
	b.Run("nil", func(b *testing.B) {
		var d *detect.Detector
		b.ReportAllocs()
		b.ResetTimer()
		t := 0.0
		for i := 0; i < b.N; i++ {
			t += 0.37
			d.Observe(i&7, t, 1.0, true)
		}
	})
}

// BenchmarkTelemetryOverhead compares the flow table's hot path
// (Lookup + Install on miss) with telemetry disabled (nil registry — the
// instruments are nil pointers, each call one nil check) and enabled.
// Disabled must track the uninstrumented baseline within noise (~5%):
// telemetry that is off costs nothing.
func BenchmarkTelemetryOverhead(b *testing.B) {
	mkTable := func(b *testing.B) (*flowtable.Table, *rules.Set) {
		rs, err := rules.NewSet([]rules.Rule{
			{Name: "rule1", Cover: flows.SetOf(0), Priority: 3, Timeout: 4},
			{Name: "rule2", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 10},
			{Name: "rule3", Cover: flows.SetOf(2), Priority: 1, Timeout: 7},
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := flowtable.New(rs, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		return tbl, rs
	}
	run := func(b *testing.B, tbl *flowtable.Table, rs *rules.Set) {
		now := 0.0
		for i := 0; i < b.N; i++ {
			now += 0.37
			f := flows.ID(i % 3)
			if _, hit := tbl.Lookup(f, now); !hit {
				if j, ok := rs.HighestCovering(f); ok {
					tbl.Install(j, now)
				}
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		tbl, rs := mkTable(b)
		// No SetTelemetry: all instruments are nil.
		b.ResetTimer()
		run(b, tbl, rs)
	})
	b.Run("enabled", func(b *testing.B) {
		tbl, rs := mkTable(b)
		tbl.SetTelemetry(telemetry.NewRegistry(), "bench")
		b.ResetTimer()
		run(b, tbl, rs)
	})
}

// fleetBenchSetup is the shared 1k-switch workload: a k=30 fat-tree
// (1125 switches), 64 hosts spread across the edge tier, and 64 flows
// chained host i → host i+1 so most traffic crosses pods (and therefore
// shards). Eight rules of eight flows each keep the reactive edges busy
// without overflowing the tables.
type fleetBenchSetup struct {
	topo     netsim.Topology
	universe *flows.Universe
	policy   *rules.Set
	hostSw   []string // edge switch of host i
	hostName []string // interned so the hot loop does no string building
	hostIP   []flows.IPv4
}

const fleetBenchHosts = 64

func newFleetBenchSetup(b *testing.B) *fleetBenchSetup {
	b.Helper()
	topo, err := netsim.FatTree(30) // 1125 switches — the "1k" fabric
	if err != nil {
		b.Fatal(err)
	}
	s := &fleetBenchSetup{topo: topo, universe: flows.NewUniverse()}
	base := flows.MakeIPv4(10, 16, 0, 0)
	for i := 0; i < fleetBenchHosts; i++ {
		// Stride the edge tier so consecutive hosts land in different pods.
		s.hostSw = append(s.hostSw, topo.Edges[(i*7)%len(topo.Edges)])
		s.hostName = append(s.hostName, "bh"+strconv.Itoa(i))
		s.hostIP = append(s.hostIP, base+flows.IPv4(i))
	}
	rs := make([]rules.Rule, 8)
	for r := range rs {
		ids := make([]flows.ID, 0, 8)
		for i := 0; i < 8; i++ {
			ids = append(ids, flows.ID(r*8+i))
		}
		rs[r] = rules.Rule{Name: "rb" + strconv.Itoa(r), Cover: flows.SetOf(ids...), Priority: r + 1, Timeout: 50}
	}
	for i := 0; i < fleetBenchHosts; i++ {
		s.universe.Add("bf"+strconv.Itoa(i), flows.FiveTuple{
			Src: s.hostIP[i], Dst: s.hostIP[(i+1)%fleetBenchHosts], Proto: flows.ProtoICMP,
		})
	}
	s.policy, err = rules.NewSet(rs)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShardedSim1k drives one echo round (64 cross-pod packets,
// ~14 events each) through the 1125-switch fat-tree and reports
// events/sec. Sub-benchmarks compare the sharded fleet engine at 1 and 8
// shards against the legacy per-closure serial engine on the identical
// topology and workload — the fleet engine's compiled routes and pooled
// event records are where the fleet-scale speedup comes from; on a
// multi-core host the 8-shard variant additionally spreads the window
// drains over the worker pool (see EXPERIMENTS.md §16 for the
// single-core caveat). allocs/op for the fleet variants is the headline:
// 0 in steady state, enforced by the alloc-gate.
func BenchmarkShardedSim1k(b *testing.B) {
	s := newFleetBenchSetup(b)
	round := func(send func(src, dst string, at float64), now float64) {
		for h := 0; h < fleetBenchHosts; h++ {
			send(s.hostName[h], s.hostName[(h+1)%fleetBenchHosts], now+float64(h)*2e-5)
		}
	}
	for _, cfg := range []struct {
		name            string
		shards, workers int
	}{
		{"fleet/shards=1", 1, 1},
		{"fleet/shards=8", 8, 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			f, err := netsim.NewFleet(netsim.FleetConfig{
				Topo:     s.topo,
				Capacity: 16,
				StepSec:  0.1,
				Ctrl:     netsim.NewControllerModel(s.policy, controller.Options{}),
				Universe: s.universe,
				Shards:   cfg.shards,
				Workers:  cfg.workers,
				Seed:     7,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < fleetBenchHosts; i++ {
				if err := f.AddHost(s.hostName[i], s.hostIP[i], s.hostSw[i]); err != nil {
					b.Fatal(err)
				}
				if err := f.SetReactive(s.hostSw[i]); err != nil {
					b.Fatal(err)
				}
			}
			send := func(src, dst string, at float64) {
				if _, err := f.SendEcho(src, dst, at); err != nil {
					b.Fatal(err)
				}
			}
			// Warm routes, heaps, and the packet arena.
			round(send, 0)
			f.Run()
			b.ReportAllocs()
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				round(send, f.Now())
				events += f.Run()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
	b.Run("legacy-serial", func(b *testing.B) {
		sim := netsim.NewSim()
		n := netsim.NewNetwork(sim, s.universe, netsim.NewControllerModel(s.policy, controller.Options{}), netsim.DefaultLatencyModel(), stats.NewRNG(7))
		if err := s.topo.Build(n, 16, 0.1); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < fleetBenchHosts; i++ {
			if err := n.AddHost(s.hostName[i], s.hostIP[i], s.hostSw[i]); err != nil {
				b.Fatal(err)
			}
			if err := n.SetReactive(s.hostSw[i], true); err != nil {
				b.Fatal(err)
			}
		}
		send := func(src, dst string, at float64) {
			if _, err := n.SendEcho(src, dst, at); err != nil {
				b.Fatal(err)
			}
		}
		round(send, 0)
		sim.Run()
		b.ReportAllocs()
		b.ResetTimer()
		events := 0
		for i := 0; i < b.N; i++ {
			round(send, sim.Now())
			events += sim.Run()
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkColdSessionBuild is the model layer of a cold flowrecond
// session: BuildConfig (both compact chains and their Eqn 8 evolution)
// plus StandardAttackers (the §V-B two-probe search) over 256 rotating
// target configurations. That is more than the model cache holds, so
// every iteration rebuilds its chains, while one untimed pass first warms
// the u-sum memo, as a long-running daemon's is. allocs/op is the
// session build's allocation count.
func BenchmarkColdSessionBuild(b *testing.B) {
	const configs = 256
	build := func(i int) {
		spec := experiment.RecordingSpec{
			Params:     benchParams(),
			ConfigSeed: int64(i%configs) + 1,
			TrialSeed:  1,
			Trials:     1,
			Probes:     2,
		}
		nc, err := spec.BuildConfig()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.StandardAttackers(nc, spec.Probes); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < configs; i++ {
		build(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(i)
	}
}

// BenchmarkWarmTrial is the trial layer of a warm flowrecond session:
// one probing TrialRunner.Run on a resident model — the Poisson window,
// its replay into the switch table, each attacker's probes on its own
// copy of the replayed state, and the verdicts — with a telemetry
// registry attached, as the daemon runs it. The detect sub-benchmark adds
// 5% probe loss, 0.3 ms jitter and a detector per attacker, the chaos
// workload's session shape. allocs/op is the warm trial's allocation
// count.
func BenchmarkWarmTrial(b *testing.B) {
	spec := experiment.RecordingSpec{
		Params:     benchParams(),
		ConfigSeed: 11,
		TrialSeed:  1,
		Trials:     1,
		Probes:     2,
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		b.Fatal(err)
	}
	roster, err := experiment.StandardAttackers(nc, spec.Probes)
	if err != nil {
		b.Fatal(err)
	}
	dc := detect.DefaultConfig()
	for _, bc := range []struct {
		name string
		opts experiment.RunnerOptions
	}{
		{"plain", experiment.RunnerOptions{}},
		{"detect", experiment.RunnerOptions{
			Faults:        faults.Profile{Seed: 3, LossProb: 0.05, JitterMeanMs: 0.3},
			Detect:        &dc,
			KeepDetectors: true,
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.opts.Registry = telemetry.NewRegistry()
			r := experiment.NewTrialRunner(nc, roster, experiment.DefaultMeasurement(), bc.opts)
			seeds := experiment.TrialSeeds(7, 256)
			for _, seed := range seeds[:16] { // warm the pooled trial scratch
				if _, err := r.Run(0, seed); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(i, seeds[i%len(seeds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestPcap measures the full ingestion pipeline on an
// in-memory ~10k-packet capture: pcap decode (header + Ethernet/IPv4/
// transport parse per record), flow extraction with the lazy expiry
// heap, and the per-source universe mapping. ns/op is the per-capture
// cost; MB/s puts it in packets-on-disk terms. The Capture and
// Extractor are reused across iterations (ReadPcapInto + Observe/Flush),
// the steady-state shape of a daemon replaying many captures — per-op
// heap traffic is the trace build plus map/slab growth to the flow peak,
// not a fresh multi-megabyte packet slice per file.
func BenchmarkIngestPcap(b *testing.B) {
	rng := stats.NewRNG(17)
	const npkts = 10000
	pkts := make([]ingest.Packet, npkts)
	now := 0.0
	for i := range pkts {
		now += rng.Exp(500) // 500 pkt/s
		src := flows.MakeIPv4(10, 0, 0, byte(1+rng.Intn(32)))
		dst := flows.MakeIPv4(10, 1, 0, byte(1+rng.Intn(32)))
		pkts[i] = ingest.Packet{
			Time:  now,
			Key:   ingest.MakeKey(src, dst, flows.ProtoTCP, uint16(1024+rng.Intn(4096)), 443),
			Bytes: 64 + rng.Intn(1400),
		}
	}
	var buf bytes.Buffer
	if err := ingest.WritePcap(&buf, pkts, ingest.WriteOptions{LittleEndian: true}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	var classes int
	var capt ingest.Capture
	ex := ingest.NewExtractor(0, 0)
	for i := 0; i < b.N; i++ {
		if err := ingest.ReadPcapInto(bytes.NewReader(raw), &capt); err != nil {
			b.Fatal(err)
		}
		for _, p := range capt.Packets {
			if err := ex.Observe(p); err != nil {
				b.Fatal(err)
			}
		}
		res, err := ingest.BuildTrace(ex.Flush(), ingest.TraceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		classes = res.Universe.Size()
	}
	b.ReportMetric(float64(classes), "classes")
}
