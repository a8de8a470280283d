package core

import (
	"fmt"
	"reflect"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/markov"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// The tests in this file hold the compact model, built over the subsets
// of the installable rules, to the full §IV-B chain over every subset
// (build_ref_test.go), bit for bit and through the state masks: its rows
// and estimates, the evolved distribution at every step of the window,
// every probe's split and cache side effect, and the belief tracker's
// state snapshots. The dropped states must hold exactly +0 throughout,
// and they must be exactly the states the full chain cannot reach.

// probeOnlyTarget returns a flow that is the only flow whose
// highest-priority cover is its rule, so that zeroing its rate, as M₀
// does for the target, leaves that rule installable by a probe alone;
// failing that, the first covered flow.
func probeOnlyTarget(cfg Config) flows.ID {
	witnesses := map[int]int{}
	for f := range cfg.Rates {
		if j, ok := cfg.Rules.HighestCovering(flows.ID(f)); ok {
			witnesses[j]++
		}
	}
	for f := range cfg.Rates {
		if j, ok := cfg.Rules.HighestCovering(flows.ID(f)); ok && witnesses[j] == 1 {
			return flows.ID(f)
		}
	}
	return cfg.Rules.CoveredFlows().IDs()[0]
}

// lift returns d, a distribution over the retained states, as one over
// the full chain: +0 on every dropped state.
func lift(d markov.Dist, full []int, n int) markov.Dist {
	out := make(markov.Dist, n)
	for i, fi := range full {
		out[fi] = d[i]
	}
	return out
}

// reducedChain is one reduced model with its full reference chain and
// both distributions at the end of the window.
type reducedChain struct {
	m     *CompactModel
	ref   *refModel
	full  []int
	d, df markov.Dist
}

// checkChainMatchesFull builds cfg reduced and in full and compares them:
// every retained row and estimate, reachability, the distribution at
// every step up to steps, and at the last step every flow's hit
// probability, split and probe side effect, hit and miss.
func checkChainMatchesFull(t *testing.T, name string, cfg Config, steps int) reducedChain {
	t.Helper()
	ref, err := buildReferenceModel(cfg)
	if err != nil {
		t.Fatalf("%s: reference build: %v", name, err)
	}
	m, err := NewCompactModel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := checkRetainedRows(t, name, m, ref)
	nf := len(ref.states)

	inst, positive := installableRef(cfg), true
	for f, r := range cfg.Rates {
		if _, ok := cfg.Rules.HighestCovering(flows.ID(f)); ok && r <= 0 {
			positive = false
		}
	}
	reach := ref.reachable()
	for mask := range reach {
		if mask&^inst != 0 {
			t.Fatalf("%s: the full chain reaches %b, which caches a rule outside the installable %b", name, mask, inst)
		}
	}
	if positive && len(reach) != len(full) {
		t.Fatalf("%s: the full chain reaches %d states, want all %d subsets of the installable rules", name, len(reach), len(full))
	}

	d, df := m.InitialDist(), markov.PointDist(nf, 0)
	refCSR, ws := ref.matrix.Freeze(), markov.NewWorkspace(nf)
	for step := 0; ; step++ {
		if !sameBitsSlice(lift(d, full, nf), df) {
			t.Fatalf("%s step %d: evolved distribution differs from the full chain's", name, step)
		}
		if step == steps {
			break
		}
		m.EvolveInPlace(d, 1)
		refCSR.EvolveInPlace(ws, df, 1)
	}
	if !sameBitsSlice(evolve(m, m.InitialDist(), steps), d) {
		t.Fatalf("%s: %d steps in one evolution differ from one at a time", name, steps)
	}
	if !sameBits(d.Sum(), df.Sum()) {
		t.Fatalf("%s: mass %v, full chain %v", name, d.Sum(), df.Sum())
	}
	for f := range cfg.Rates {
		probe := flows.ID(f)
		cover := ref.coverMask(probe)
		want := df.MassWhere(func(i int) bool { return ref.states[i]&cover != 0 })
		if got := m.HitProbability(d, probe); !sameBits(got, want) {
			t.Fatalf("%s flow %d: hit probability %v, full chain %v", name, f, got, want)
		}
		hit, miss := splitByHit(m, d, probe)
		fhit, fmiss := ref.splitByHit(df, probe)
		if !sameBitsSlice(lift(hit, full, nf), fhit) || !sameBitsSlice(lift(miss, full, nf), fmiss) {
			t.Fatalf("%s flow %d: split differs from the full chain's", name, f)
		}
		for _, c := range []struct {
			d, df markov.Dist
			hit   bool
		}{{hit, fhit, true}, {miss, fmiss, false}, {d, df, false}} {
			if !sameBitsSlice(lift(applyProbe(m, c.d, probe, c.hit), full, nf), ref.applyProbe(c.df, probe, c.hit)) {
				t.Fatalf("%s flow %d hit %v: probe side effect differs from the full chain's", name, f, c.hit)
			}
		}
	}
	return reducedChain{m: m, ref: ref, full: full, d: d, df: df}
}

// checkReducedMatchesFullChain checks M and M₀ — cfg with target's rate
// zeroed — against their full chains over a window of steps, then
// conditions a belief tracker over the reduced pair on a sequence of
// outcomes, a lost probe among them, and requires every snapshot to be
// the full chain's, labels and bits. It reports whether M₀'s installable
// rules differ from those of its positive-rate flows, and whether M drops
// states.
func checkReducedMatchesFullChain(t *testing.T, name string, cfg Config, target flows.ID, steps int) (probeOnly, drops bool) {
	t.Helper()
	cfg0 := cfg.withoutFlow(target)
	mc := checkChainMatchesFull(t, name, cfg, steps)
	m0c := checkChainMatchesFull(t, name+"-m0", cfg0, steps)
	var arrivals uint64
	for f, r := range cfg0.Rates {
		if j, ok := cfg0.Rules.HighestCovering(flows.ID(f)); ok && r > 0 {
			arrivals |= 1 << uint(j)
		}
	}

	sel, err := NewProbeSelector(mc.m, m0c.m, target, steps)
	if err != nil {
		t.Fatal(err)
	}
	tr := sel.NewBeliefTracker()
	df := mc.df
	probes := append([]flows.ID{target}, sel.FlowsExcept(target)...)
	for k, f := range probes[:min(len(probes), 5)] {
		var step BeliefStep
		if k == 2 {
			step = tr.ObserveLost(f)
			if !sameBits(step.PathProb, df.Sum()) {
				t.Fatalf("%s lost probe %d: path probability %v, full chain %v", name, k, step.PathProb, df.Sum())
			}
		} else {
			hit := k%2 == 0
			fhit, fmiss := mc.ref.splitByHit(df, f)
			half := fmiss
			if hit {
				half = fhit
			}
			step = tr.Observe(f, hit)
			if !sameBits(step.PathProb, half.Sum()) {
				t.Fatalf("%s probe %d: path probability %v, full chain %v", name, k, step.PathProb, half.Sum())
			}
			df = mc.ref.applyProbe(half, f, hit)
		}
		if want := TopStates(df, BeliefTrackerTopK); !reflect.DeepEqual(step.TopStates, want) {
			t.Fatalf("%s probe %d: top states %v, full chain %v", name, k, step.TopStates, want)
		}
	}
	return arrivals != installableRef(cfg0), len(mc.full) < len(mc.ref.states)
}

// reducedCase is one configuration of the reduced-model oracle, with the
// target whose rate M₀ zeroes.
type reducedCase struct {
	name   string
	cfg    Config
	target flows.ID
}

// generatedCase draws a rule set of the given scale and its rates, as the
// figures do, with a probe-only target.
func generatedCase(tb testing.TB, name string, sc usumScale, cache int, delta float64, seed int64) reducedCase {
	tb.Helper()
	rng := stats.NewRNG(seed)
	gc := rules.DefaultGenerateConfig(delta)
	gc.NumFlows, gc.NumRules, gc.MaskBits = sc.flows, sc.rules, sc.maskBits
	rs, err := rules.Generate(gc, rng)
	if err != nil {
		tb.Skip(err)
	}
	cfg := Config{Rules: rs, Rates: workload.UniformRates(sc.flows, rng), Delta: delta, CacheSize: cache}
	return reducedCase{name, cfg, probeOnlyTarget(cfg)}
}

// TestReducedModelMatchesFullChain holds M and M₀ to the full §IV-B chain
// at small and paper scale, with generated and tied rule sets. At least
// one case's target is the only flow installing its rule, so that M₀
// keeps a rule only a probe can install, and at least one drops states.
func TestReducedModelMatchesFullChain(t *testing.T) {
	var cases []reducedCase
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, generatedCase(t, fmt.Sprintf("small-%d", seed), usumSmall, usumSmall.cache, 0.05, seed))
	}
	cases = append(cases, generatedCase(t, "paper", usumPaper, usumPaper.cache, 0.025, 5))
	tied := tiedConfig(t, 70, 8, 3, 0.05, 9)
	cases = append(cases, reducedCase{"tied", tied, probeOnlyTarget(tied)})
	probeOnly, dropping := 0, 0
	for _, c := range cases {
		p, d := checkReducedMatchesFullChain(t, c.name, c.cfg, c.target, 100)
		if p {
			probeOnly++
		}
		if d {
			dropping++
		}
	}
	if probeOnly == 0 || dropping == 0 {
		t.Fatalf("%d cases keep a probe-only rule in M₀ and %d drop states; want at least one of each", probeOnly, dropping)
	}
}

// FuzzReducedModelMatchesFullChain holds M and M₀ to the full chain on
// arbitrary configurations of the shapes FuzzCompactBuildMatchesReference
// draws — generated or tied rule sets, universes of up to 96 flows, any
// cache size — and at paper scale, with M₀'s target chosen to be the only
// flow installing its rule when one is.
func FuzzReducedModelMatchesFullChain(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), false, false)
	f.Add(int64(2), uint8(70), uint8(2), true, false)
	f.Add(int64(3), uint8(16), uint8(4), false, true)
	f.Add(int64(4), uint8(90), uint8(1), true, false)
	f.Fuzz(func(t *testing.T, seed int64, numFlows, cache uint8, tied, paper bool) {
		var c reducedCase
		switch {
		case paper:
			c = generatedCase(t, "fuzz-paper", usumPaper, 1+int(cache)%6, 0.025, seed)
		case tied:
			cfg := tiedConfig(t, 8+int(numFlows)%89, 7, 1+int(cache)%4, 0.05, seed)
			c = reducedCase{"fuzz-tied", cfg, probeOnlyTarget(cfg)}
		default:
			sc := usumScale{flows: 8 + int(numFlows)%89, rules: 6, maskBits: 3}
			c = generatedCase(t, "fuzz", sc, 1+int(cache)%4, 0.05, seed)
		}
		checkReducedMatchesFullChain(t, c.name, c.cfg, c.target, 40)
	})
}
