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
	"slices"
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

// BenchmarkCompactModelBuildPaperScale assembles the §IV-B chain of a
// rule set the paper's generator draws at its evaluation scale, |Rules| =
// 12 and n = 6: 5 of the seed-1 draw's rules are installable, so the
// chain has their 32 subset states (the states metric), not the bound of
// 2510. An untimed build first primes the benchmark's own u-sum memo, so the
// reported time is the cost of rebuilding an identical model over a warm
// memo — what a daemon pays when a session revisits a configuration its
// model store has evicted. See BenchmarkCompactModelBuildCold for the
// uncached first-build cost.
func BenchmarkCompactModelBuildPaperScale(b *testing.B) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	builds := core.NewBuilds(nil, true)
	if _, err := core.NewCompactModel(cfg, builds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		m, err := core.NewCompactModel(cfg, builds)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkCompactModelBuildCold is the uncached build number: no u-sum
// memo, so each build pays the full transition estimation cost — the way
// every build of a new configuration behaves, the conditioned twin M₀
// included. It builds BenchmarkCompactModelBuildPaperScale's 32-state
// chain, which that benchmark rebuilds over a memo kept warm across
// iterations.
func BenchmarkCompactModelBuildCold(b *testing.B) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.025), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	var states int
	for i := 0; i < b.N; i++ {
		m, err := core.NewCompactModel(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		states = m.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// allInstallableRules is a paper-scale rule set, 12 rules over 16 flows,
// whose every rule is installable: rule j is the only rule covering flow
// j, and also covers the shared flow 12 + j mod 4, which the
// highest-priority rule of its residue class wins. A cache of 6 then
// keeps every one of the bound's 2510 subset states.
func allInstallableRules(b *testing.B) *rules.Set {
	rng := stats.NewRNG(1)
	timeouts := rules.DefaultGenerateConfig(0.025).Timeouts
	rs := make([]rules.Rule, 12)
	for j := range rs {
		rs[j] = rules.Rule{
			Cover:    flows.SetOf(flows.ID(j), flows.ID(12+j%4)),
			Priority: j + 1,
			Timeout:  timeouts[rng.Intn(len(timeouts))],
		}
	}
	set, err := rules.NewSet(rs)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkEvolve measures Eqn (8): I_T = Aᵀ I₀ over the paper's probe
// window (T = 600 steps at Δ = 25 ms) on a 2510-state chain, the largest
// the paper's evaluation scale allows (allInstallableRules).
func BenchmarkEvolve(b *testing.B) {
	cfg := core.Config{Rules: allInstallableRules(b), Rates: workloadRates(16, 2), Delta: 0.025, CacheSize: 6}
	m, err := core.NewCompactModel(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if m.NumStates() != core.CompactStateCount(12, 6) {
		b.Fatalf("%d states, want every one of %d", m.NumStates(), core.CompactStateCount(12, 6))
	}
	d0 := m.InitialDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvolveInPlace(slices.Clone(d0), 600)
	}
	b.ReportMetric(float64(m.NumStates()), "states")
}

// BenchmarkEvolveSmallScale measures Eqn (8) on a small-scale chain: 26
// states (6 rules, 5 of them installable, cache 3), the size of the
// small-scale figures' and perfbench's flowrecond sessions' models,
// evolved T = 100 steps (a 5 s window at Δ = 50 ms, as in those
// sessions). Its rows are shorter than BenchmarkEvolve's, so a change to
// the gather's inner loop can move the two differently.
func BenchmarkEvolveSmallScale(b *testing.B) {
	gc := rules.DefaultGenerateConfig(0.05)
	gc.NumFlows, gc.NumRules, gc.MaskBits = 8, 6, 3
	rs, err := rules.Generate(gc, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Rules: rs, Rates: workloadRates(8, 2), Delta: 0.05, CacheSize: 3}
	m, err := core.NewCompactModel(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	d0 := m.InitialDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvolveInPlace(slices.Clone(d0), 100)
	}
	b.ReportMetric(float64(m.NumStates()), "states")
}

// BenchmarkProbeSelection measures single-probe information-gain search
// over every candidate flow (§V-A).
func BenchmarkProbeSelection(b *testing.B) {
	cfg := benchCoreConfig(b)
	sel, err := core.NewCompactSelector(cfg, 0, 20, nil)
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
	sel, err := core.NewCompactSelector(cfg, 0, 20, nil)
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
	res, err := experiment.RunFig6(experiment.FigureOptions{
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
	res, err := experiment.RunFig7(experiment.FigureOptions{
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
				m, err := core.NewCompactModel(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				d := m.InitialDist()
				m.EvolveInPlace(d, steps)
				hit = m.HitProbability(d, 0)
			}
			b.ReportMetric(hit, "P(hit-f0)")
		})
	}
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
	sel, err := core.NewCompactSelector(cfg, 0, 20, nil)
	if err != nil {
		b.Fatal(err)
	}
	var single core.ProbeEval
	var pair core.SequenceEval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single, _ = sel.Best(sel.AllFlows())
		pair, _ = sel.BestSequence(sel.AllFlows(), 2)
	}
	b.ReportMetric(single.Gain, "gain1-bits")
	b.ReportMetric(pair.Gain, "gain2-bits")
}

// BenchmarkTrialLoopRecording compares one full attack trial (traffic
// generation, table replay, probing, verdicts for the standard
// four-attacker roster) with forensics off (no span tree, no belief
// tracking) and with the complete JSONL recording (belief steps + spans)
// streamed to a discarded writer. The gap between the two is the price
// of full forensics.
func BenchmarkTrialLoopRecording(b *testing.B) {
	spec := experiment.RecordingSpec{
		Params:      benchParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      1,
		Probes:      2,
		Measurement: experiment.DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		b.Fatal(err)
	}
	attackers, err := experiment.StandardAttackers(nc, spec.Probes)
	if err != nil {
		b.Fatal(err)
	}
	trial := func(b *testing.B, opts experiment.RunnerOptions, consumers ...func(experiment.TrialResult) error) {
		b.Helper()
		r := experiment.NewTrialRunner(nc, attackers, spec.Measurement, opts)
		if _, err := r.RunTrials(1, spec.TrialSeed, 1, consumers...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trial(b, experiment.RunnerOptions{})
		}
	})
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, err := trialrec.NewRecorder(io.Discard, trialrec.Header{Trials: 1})
			if err != nil {
				b.Fatal(err)
			}
			trial(b, experiment.RunnerOptions{Record: true}, experiment.RecordTrials(rec))
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
	nc, err := spec.BuildConfig(nil)
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
				r := experiment.NewTrialRunner(nc, attackers, spec.Measurement, experiment.RunnerOptions{})
				if _, err := r.RunTrials(spec.Trials, spec.TrialSeed, workers); err != nil {
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
// events/sec, on the fleet engine at 1 and 8 shards. The 1-shard variant
// is the per-event cost of the drain loop, which `make sched-gate` holds
// to its contract; on a multi-core host the 8-shard variant additionally
// spreads the window drains over the worker pool (see EXPERIMENTS.md §16
// for the single-core caveat). allocs/op is the headline: 0 in steady
// state, enforced by the alloc-gate.
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
}

// BenchmarkColdSessionBuild is the model layer of a cold flowrecond
// session: BuildConfig (both compact chains and their Eqn 8 evolution)
// plus StandardAttackers (the §V-B two-probe search) over 256 rotating
// target configurations. Nothing caches the chains, so every iteration
// rebuilds them, while one untimed pass first warms the benchmark's
// u-sum memo, as a long-running daemon's store's is when it evicts and
// revisits configurations. allocs/op is the session build's allocation
// count.
func BenchmarkColdSessionBuild(b *testing.B) {
	const configs = 256
	builds := core.NewBuilds(nil, true)
	build := func(i int) {
		spec := experiment.RecordingSpec{
			Params:     benchParams(),
			ConfigSeed: int64(i%configs) + 1,
			TrialSeed:  1,
			Trials:     1,
			Probes:     2,
		}
		nc, err := spec.BuildConfig(builds)
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
// workload's session shape, and hands the detectors back after each
// trial as the daemon does once it has merged them. allocs/op is the
// warm trial's allocation count.
func BenchmarkWarmTrial(b *testing.B) {
	spec := experiment.RecordingSpec{
		Params:     benchParams(),
		ConfigSeed: 11,
		TrialSeed:  1,
		Trials:     1,
		Probes:     2,
	}
	nc, err := spec.BuildConfig(nil)
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
			Faults: faults.Profile{Seed: 3, LossProb: 0.05, JitterMeanMs: 0.3},
			Detect: &dc,
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.opts.Registry = telemetry.NewRegistry()
			r := experiment.NewTrialRunner(nc, roster, experiment.DefaultMeasurement(), bc.opts)
			seeds := experiment.TrialSeeds(7, 256)
			for _, seed := range seeds[:16] { // warm the pooled trial scratch and detectors
				res, err := r.Run(0, seed)
				if err != nil {
					b.Fatal(err)
				}
				res.ReleaseDetectors()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Run(i, seeds[i%len(seeds)])
				if err != nil {
					b.Fatal(err)
				}
				res.ReleaseDetectors()
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
