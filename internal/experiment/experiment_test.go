package experiment

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/plot"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// tinyParams returns a scaled-down §VI-A configuration that keeps the
// test suite fast: 8 flows, 6 of 27 candidate rules, cache 3.
func tinyParams() Params {
	return Params{
		NumFlows:      8,
		NumRules:      6,
		MaskBits:      3,
		CacheSize:     3,
		Delta:         0.1,
		WindowSeconds: 5,
		USum:          core.USumParams{ExactLimit: 20000, MCSamples: 400, Seed: 1},
		AbsenceLo:     0.02,
		AbsenceHi:     0.98,
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.Delta = 0
	if bad.Validate() == nil {
		t.Fatal("zero delta accepted")
	}
	bad = DefaultParams()
	bad.AbsenceLo = 0.9
	bad.AbsenceHi = 0.1
	if bad.Validate() == nil {
		t.Fatal("inverted absence range accepted")
	}
	bad = DefaultParams()
	bad.NumFlows = 0
	if bad.Validate() == nil {
		t.Fatal("zero flows accepted")
	}
}

func TestParamsSteps(t *testing.T) {
	p := DefaultParams() // 15 s / 0.025 s
	if p.Steps() != 600 {
		t.Fatalf("steps = %d", p.Steps())
	}
	p.Delta = 0.4
	p.WindowSeconds = 1
	if p.Steps() != 3 { // ⌈1/0.4⌉
		t.Fatalf("steps = %d", p.Steps())
	}
}

func TestGenerateConfig(t *testing.T) {
	p := tinyParams()
	nc, err := GenerateConfig(p, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if nc.Rules.Len() != p.NumRules || len(nc.Rates) != p.NumFlows {
		t.Fatalf("sizes wrong: %d rules, %d rates", nc.Rules.Len(), len(nc.Rates))
	}
	if nc.PAbsent() < p.AbsenceLo || nc.PAbsent() > p.AbsenceHi {
		t.Fatalf("target absence %v outside [%v,%v]", nc.PAbsent(), p.AbsenceLo, p.AbsenceHi)
	}
	if nc.NumCoveringTarget < 1 {
		t.Fatal("target flow not covered by any rule")
	}
	if nc.Optimal.Gain < nc.TargetEval.Gain-1e-9 {
		t.Fatal("optimal probe has less gain than probing the target")
	}
	if nc.Optimal.Gain < nc.Restricted.Gain-1e-9 {
		t.Fatal("optimal probe has less gain than the restricted probe")
	}
	if nc.Restricted.Flow == nc.Target {
		t.Fatal("restricted probe is the target")
	}
}

func TestGenerateConfigDeterministic(t *testing.T) {
	p := tinyParams()
	a, err := GenerateConfig(p, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateConfig(p, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Target != b.Target || a.Optimal.Flow != b.Optimal.Flow {
		t.Fatal("same seed produced different configs")
	}
	if math.Abs(a.Optimal.Gain-b.Optimal.Gain) > 1e-12 {
		t.Fatal("same seed produced different gains")
	}
}

func TestMeasurementClassify(t *testing.T) {
	m := DefaultMeasurement()
	rng := stats.NewRNG(9)
	const n = 5000
	wrong := 0
	for i := 0; i < n; i++ {
		if !m.Classify(true, rng) {
			wrong++
		}
		if m.Classify(false, rng) {
			wrong++
		}
	}
	if frac := float64(wrong) / (2 * n); frac > 0.01 {
		t.Fatalf("threshold misclassifies %.2f%% of observations", 100*frac)
	}
}

func TestRunTrialsAccounting(t *testing.T) {
	p := tinyParams()
	nc, err := GenerateConfig(p, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	naive := &core.NaiveAttacker{TargetFlow: nc.Target}
	rnd := &core.RandomAttacker{PPresent: 1 - nc.PAbsent()}
	results, err := RunTrials(nc, []core.Attacker{naive, rnd}, 60, DefaultMeasurement(), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Trials != 60 {
			t.Fatalf("%s: trials = %d", r.Name, r.Trials)
		}
		if r.TruePos+r.TrueNeg != r.Correct {
			t.Fatalf("%s: correct accounting broken: %+v", r.Name, r)
		}
		if r.Correct+r.FalsePos+r.FalseNeg != r.Trials {
			t.Fatalf("%s: totals broken: %+v", r.Name, r)
		}
		if acc := r.Accuracy(); acc < 0 || acc > 1 {
			t.Fatalf("%s: accuracy = %v", r.Name, acc)
		}
	}
	if (AttackerResult{}).Accuracy() != 0 {
		t.Fatal("zero-trial accuracy should be 0")
	}
}

// TestNaiveAttackerBeatsCoinFlipOnViableConfig is the end-to-end sanity
// check of the whole pipeline: on a configuration whose optimal probe is a
// viable detector, probing must beat guessing.
func TestNaiveAttackerBeatsCoinFlipOnViableConfig(t *testing.T) {
	p := tinyParams()
	rng := stats.NewRNG(21)
	var nc *NetworkConfig
	for i := 0; i < 200; i++ {
		cand, err := GenerateConfig(p, rng.Fork())
		if err != nil {
			continue
		}
		// Require a prior near 0.5 (guessing is genuinely hard) and a
		// probe with real information gain: the paper's viability filter
		// alone admits detectors that are only infinitesimally better
		// than guessing.
		if cand.DetectorViable() && cand.PAbsent() > 0.3 && cand.PAbsent() < 0.7 && cand.Optimal.Gain > 0.15 {
			nc = cand
			break
		}
	}
	if nc == nil {
		t.Skip("no viable configuration found in budget")
	}
	model, err := core.NewModelAttacker(nc.Selector, nc.Selector.AllFlows(), 1, core.DecideByQuery)
	if err != nil {
		t.Fatal(err)
	}
	attackers := []core.Attacker{
		&core.NaiveAttacker{TargetFlow: nc.Target},
		model,
		&core.RandomAttacker{PPresent: 1 - nc.PAbsent()},
	}
	results, err := RunTrials(nc, attackers, 300, DefaultMeasurement(), stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AttackerResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if modelAcc := byName[model.Name()].Accuracy(); modelAcc < 0.55 {
		t.Errorf("model accuracy %.3f barely beats guessing", modelAcc)
	}
	if byName[model.Name()].Accuracy() < byName["random"].Accuracy()-0.05 {
		t.Errorf("model (%.3f) lost to random (%.3f)",
			byName[model.Name()].Accuracy(), byName["random"].Accuracy())
	}
}

func TestRunFig6Small(t *testing.T) {
	opts := Fig6Options{
		Params:          tinyParams(),
		Configs:         3,
		TrialsPerConfig: 40,
		MaxAttempts:     400,
		Seed:            3,
	}
	res, err := RunFig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	for _, o := range res.Outcomes {
		if o.OptimalFlow == o.TargetFlow {
			t.Fatal("fig6 population filter violated")
		}
		for name, acc := range o.Accuracy {
			if acc < 0 || acc > 1 {
				t.Fatalf("%s accuracy %v", name, acc)
			}
		}
	}
	total := 0
	for _, b := range res.Buckets {
		total += b.Configs
	}
	if total != len(res.Outcomes) {
		t.Fatalf("bucketed %d of %d outcomes", total, len(res.Outcomes))
	}
	if len(res.ImprovementCDF) == 0 {
		t.Fatal("empty improvement CDF")
	}
	var buf bytes.Buffer
	if err := WriteFig6(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty fig6 report")
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, res.Outcomes); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunFig7Small(t *testing.T) {
	opts := Fig7Options{
		Params:          tinyParams(),
		Configs:         3,
		TrialsPerConfig: 40,
		MaxAttempts:     400,
		Seed:            4,
	}
	res, err := RunFig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	if len(res.ByCover) == 0 || len(res.ByAbsence) == 0 {
		t.Fatal("missing buckets")
	}
	names := sortedAttackerNames(res.Outcomes)
	if len(names) != 3 {
		t.Fatalf("attackers = %v", names)
	}
	var buf bytes.Buffer
	if err := WriteFig7(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty fig7 report")
	}
}

func TestMeasureLatency(t *testing.T) {
	report, err := MeasureLatency(150, 40, 5, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if report.SimHitMs.N == 0 || report.SimMissMs.N == 0 {
		t.Fatal("no simulated samples")
	}
	if math.Abs(report.SimHitMs.Mean-0.087) > 0.06 {
		t.Errorf("sim hit mean = %.4f ms", report.SimHitMs.Mean)
	}
	if math.Abs(report.SimMissMs.Mean-4.07) > 0.8 {
		t.Errorf("sim miss mean = %.3f ms", report.SimMissMs.Mean)
	}
	if report.SimMisclassified > 0.02 {
		t.Errorf("sim misclassification %.2f%%", 100*report.SimMisclassified)
	}
	// Real-TCP OpenFlow: miss delays must exceed the controller's
	// processing time; hit delays must be far below it.
	if report.OFMissMs.N == 0 || report.OFHitMs.N == 0 {
		t.Fatal("no openflow samples")
	}
	if report.OFMissMs.Mean < 3 {
		t.Errorf("openflow miss mean = %.3f ms, below processing delay", report.OFMissMs.Mean)
	}
	if report.OFHitMs.Mean > 1 {
		t.Errorf("openflow hit mean = %.3f ms", report.OFHitMs.Mean)
	}
	if report.OFMisclassified > 0.05 {
		t.Errorf("openflow misclassification %.2f%%", 100*report.OFMisclassified)
	}
	var buf bytes.Buffer
	if err := WriteLatency(&buf, report); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty latency report")
	}
}

func TestBucketByAbsenceEdges(t *testing.T) {
	outcomes := []ConfigOutcome{
		{PAbsent: 0.0, Accuracy: map[string]float64{"naive": 1}},
		{PAbsent: 0.999, Accuracy: map[string]float64{"naive": 0}},
		{PAbsent: 1.0, Accuracy: map[string]float64{"naive": 0.5}},
	}
	buckets := bucketByAbsence(outcomes, 5)
	if buckets[0].Configs != 1 {
		t.Fatalf("first bucket = %+v", buckets[0])
	}
	if buckets[4].Configs != 2 {
		t.Fatalf("last bucket = %+v (1.0 must clamp in)", buckets[4])
	}
	if buckets[4].Accuracy["naive"] != 0.25 {
		t.Fatalf("last bucket mean = %v", buckets[4].Accuracy["naive"])
	}
}

func TestImprovementQuantiles(t *testing.T) {
	r := &Fig6Result{Outcomes: []ConfigOutcome{
		{Accuracy: map[string]float64{"naive": 0.5, "model(m=1)": 0.7}},
		{Accuracy: map[string]float64{"naive": 0.6, "model(m=1)": 0.6}},
	}}
	q := r.ImprovementQuantiles([]float64{0.0, 0.1, 0.3})
	if q[0.0] != 1 || q[0.1] != 0.5 || q[0.3] != 0 {
		t.Fatalf("quantiles = %v", q)
	}
}

// TestModelJointMatchesEmpirical validates the attacker's fitted model
// end-to-end: the compact-model joint distribution P(X̂, Q_f) for the
// optimal probe must match the empirical joint measured over thousands of
// independent traffic traces.
func TestModelJointMatchesEmpirical(t *testing.T) {
	p := tinyParams()
	p.Delta = 0.05 // halve the step so ΣλΔ ≈ 0.2: the chain's regime
	nc, err := GenerateConfig(p, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	horizon := float64(nc.Params.Steps()) * nc.Params.Delta
	var cnt [2][2]float64
	g := stats.NewRNG(31)
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		trace, err := workload.GeneratePoisson(workload.PoissonConfig{Rates: nc.Rates, Duration: horizon}, g.Fork())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := replayTrace(nc, trace, flowtable.Metrics{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, q := 0, 0
		if trace.OccurredWithin(nc.Target, horizon, horizon) {
			x = 1
		}
		if _, hit := tbl.Lookup(nc.Optimal.Flow, horizon); hit {
			q = 1
		}
		cnt[x][q]++
	}
	// The compact model is intentionally approximate: its memoryless
	// timeout/eviction estimates leave a residual bias of a few percent
	// that does not vanish as Δ → 0 (the §IV-B approximation the paper
	// acknowledges). The tolerance reflects that.
	for x := 0; x < 2; x++ {
		for q := 0; q < 2; q++ {
			emp := cnt[x][q] / trials
			mod := nc.Optimal.Joint[x][q]
			if d := emp - mod; d > 0.08 || d < -0.08 {
				t.Errorf("joint[%d][%d]: empirical %.3f vs model %.3f", x, q, emp, mod)
			}
		}
	}
}

func TestRunTrialsWithAlternativeSources(t *testing.T) {
	p := tinyParams()
	nc, err := GenerateConfig(p, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	naive := &core.NaiveAttacker{TargetFlow: nc.Target}
	bf, on, off := workload.DefaultBurstShape()
	for name, src := range map[string]TraceSource{
		"bursty":   BurstySource(bf, on, off),
		"periodic": PeriodicSource,
	} {
		results, err := RunTrialsWithSource(nc, []core.Attacker{naive}, 50, DefaultMeasurement(), stats.NewRNG(9), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if results[0].Trials != 50 {
			t.Fatalf("%s: trials = %d", name, results[0].Trials)
		}
		if acc := results[0].Accuracy(); acc < 0 || acc > 1 {
			t.Fatalf("%s: accuracy = %v", name, acc)
		}
	}
}

func TestAdaptiveAttackerInTrials(t *testing.T) {
	p := tinyParams()
	nc, err := GenerateConfig(p, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := core.NewAdaptiveAttacker(nc.Selector, nc.Selector.AllFlows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunTrials(nc, []core.Attacker{adaptive}, 60, DefaultMeasurement(), stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Trials != 60 {
		t.Fatalf("trials = %d", results[0].Trials)
	}
	if acc := results[0].Accuracy(); acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestReportWriters(t *testing.T) {
	outcomes := []ConfigOutcome{
		{PAbsent: 0.3, NumCoveringTarget: 2, TargetFlow: 1, OptimalFlow: 4,
			Accuracy: map[string]float64{"naive": 0.6, "model(m=1)": 0.7, "random": 0.5}},
		{PAbsent: 0.8, NumCoveringTarget: 1, TargetFlow: 2, OptimalFlow: 2,
			Accuracy: map[string]float64{"naive": 0.8, "model(m=1)": 0.85, "random": 0.55}},
	}
	f6 := &Fig6Result{
		Outcomes:       outcomes,
		Buckets:        bucketByAbsence(outcomes, 5),
		ImprovementCDF: stats.EmpiricalCDF([]float64{0.1, 0.05}),
		MeanModel:      0.775,
		MeanNaive:      0.7,
	}
	var buf bytes.Buffer
	if err := WriteFig6(&buf, f6); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 6a", "Figure 6b", "naive", "model(m=1)", "population means"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("fig6 report missing %q", want)
		}
	}

	f7 := &Fig7Result{
		Outcomes:  outcomes,
		ByCover:   bucketByCover(outcomes),
		ByAbsence: bucketByAbsence(outcomes, 5),
	}
	buf.Reset()
	if err := WriteFig7(&buf, f7); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 7a", "Figure 7b", "random"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("fig7 report missing %q", want)
		}
	}

	buf.Reset()
	if err := WriteCSV(&buf, outcomes); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !bytes.HasPrefix(lines[0], []byte("p_absent,num_covering,target,optimal")) {
		t.Fatalf("csv header = %s", lines[0])
	}

	rep := &LatencyReport{ThresholdMs: 1}
	rep.SimHitMs = stats.Summarize([]float64{0.1})
	rep.SimMissMs = stats.Summarize([]float64{4})
	buf.Reset()
	if err := WriteLatency(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("netsim hit RTT")) {
		t.Fatal("latency report missing rows")
	}
}

func TestBucketByCoverSkipsEmpty(t *testing.T) {
	outcomes := []ConfigOutcome{
		{NumCoveringTarget: 3, Accuracy: map[string]float64{"naive": 1}},
	}
	buckets := bucketByCover(outcomes)
	if len(buckets) != 1 || buckets[0].NumCovering != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
}

func TestPopulationMeans(t *testing.T) {
	outcomes := []ConfigOutcome{
		{Accuracy: map[string]float64{"naive": 0.5, "model(m=1)": 0.7}},
		{Accuracy: map[string]float64{"naive": 0.7, "model(m=1)": 0.9}},
	}
	model, naive := populationMeans(outcomes)
	if math.Abs(model-0.8) > 1e-12 || math.Abs(naive-0.6) > 1e-12 {
		t.Fatalf("means = %v %v", model, naive)
	}
}

func TestWithStratum(t *testing.T) {
	p := DefaultParams()
	for i := 0; i < 2*len(AbsenceStrata); i++ {
		s := p.WithStratum(i)
		if s.AbsenceLo >= s.AbsenceHi {
			t.Fatalf("stratum %d inverted", i)
		}
		if s.AbsenceLo != AbsenceStrata[i%len(AbsenceStrata)][0] {
			t.Fatalf("stratum %d lo = %v", i, s.AbsenceLo)
		}
	}
}

func TestSaveLoadConfigRoundTrip(t *testing.T) {
	p := tinyParams()
	orig, err := GenerateConfig(p, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveConfig(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Target != orig.Target {
		t.Fatalf("target %d vs %d", loaded.Target, orig.Target)
	}
	if loaded.Optimal.Flow != orig.Optimal.Flow {
		t.Fatalf("optimal %d vs %d", loaded.Optimal.Flow, orig.Optimal.Flow)
	}
	if math.Abs(loaded.Optimal.Gain-orig.Optimal.Gain) > 1e-12 {
		t.Fatalf("gain %v vs %v (u-sum seed must be preserved)", loaded.Optimal.Gain, orig.Optimal.Gain)
	}
	if loaded.NumCoveringTarget != orig.NumCoveringTarget {
		t.Fatal("covering count differs")
	}
	for i := 0; i < orig.Rules.Len(); i++ {
		a, b := orig.Rules.Rule(i), loaded.Rules.Rule(i)
		if a.Name != b.Name || a.Priority != b.Priority || a.Timeout != b.Timeout || !a.Cover.Equal(b.Cover) {
			t.Fatalf("rule %d differs: %s vs %s", i, a, b)
		}
	}
}

func TestLoadConfigRejectsGarbage(t *testing.T) {
	if _, err := LoadConfig(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := LoadConfig(bytes.NewBufferString(`{"params":{}}`)); err == nil {
		t.Fatal("empty params accepted")
	}
}

func TestFigureCharts(t *testing.T) {
	outcomes := []ConfigOutcome{
		{PAbsent: 0.3, NumCoveringTarget: 2,
			Accuracy: map[string]float64{"naive": 0.6, "model(m=1)": 0.7, "random": 0.5}},
		{PAbsent: 0.8, NumCoveringTarget: 1,
			Accuracy: map[string]float64{"naive": 0.8, "model(m=1)": 0.85, "random": 0.55}},
	}
	f6 := &Fig6Result{
		Outcomes:       outcomes,
		Buckets:        bucketByAbsence(outcomes, 5),
		ImprovementCDF: stats.EmpiricalCDF([]float64{0.05, 0.1}),
	}
	f7 := &Fig7Result{
		Outcomes:  outcomes,
		ByCover:   bucketByCover(outcomes),
		ByAbsence: bucketByAbsence(outcomes, 5),
	}
	charts := map[string]*plot.Chart{
		"fig6a": Fig6aChart(f6),
		"fig6b": Fig6bChart(f6),
		"fig7a": Fig7aChart(f7),
		"fig7b": Fig7bChart(f7),
	}
	rendered := map[string]*bytes.Buffer{}
	err := WriteSVGs(charts, func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		rendered[name] = buf
		return nopCloser{buf}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, buf := range rendered {
		if !bytes.Contains(buf.Bytes(), []byte("<svg")) {
			t.Errorf("%s: not an SVG", name)
		}
	}
	if len(rendered) != 4 {
		t.Fatalf("rendered %d charts", len(rendered))
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
