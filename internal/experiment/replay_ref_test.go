package experiment

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"flowrecon/internal/detect"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/workload"
)

// replayTrace is the trial loop's replay as it was before one replay
// served every attacker: it builds a fresh table per (trial, attacker)
// replica and replays the window into it, a non-nil detector observing
// every lookup as it happens. It is the oracle
// TestReplayOnceMatchesPerReplicaReplay holds the shared replay to.
func replayTrace(nc *NetworkConfig, trace *workload.Trace, tm flowtable.Metrics, det *detect.Detector) (*flowtable.Table, error) {
	tbl, err := flowtable.New(nc.Rules, nc.Params.CacheSize, nc.Params.Delta)
	if err != nil {
		return nil, fmt.Errorf("trial table: %w", err)
	}
	tbl.SetMetrics(tm)
	for _, a := range trace.Arrivals() {
		_, hit := tbl.Lookup(a.Flow, a.Time)
		det.Observe(int(a.Flow), a.Time, math.NaN(), hit)
		if !hit {
			if j, covered := nc.Rules.HighestCovering(a.Flow); covered {
				tbl.Install(j, a.Time)
			}
		}
	}
	return tbl, nil
}

// replayConfig is a network configuration with only what a replay reads:
// a generated rule set (a hardRatio share of hard timeouts), a uniform
// rate vector scaled by rateScale, and the switch's capacity and step.
func replayConfig(t *testing.T, p Params, hardRatio, rateScale float64, seed int64) *NetworkConfig {
	t.Helper()
	rng := stats.NewRNG(seed)
	rs, err := rules.Generate(rules.GenerateConfig{
		NumFlows: p.NumFlows, NumRules: p.NumRules, MaskBits: p.MaskBits,
		Timeouts: timeoutChoices(p.Delta), HardRatio: hardRatio,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rates := workload.UniformRates(p.NumFlows, rng)
	for f := range rates {
		rates[f] *= rateScale
	}
	return &NetworkConfig{Params: p, Rules: rs, Rates: rates}
}

// probeLog drives tbl through a random probe sequence after the window —
// the trial loop's lookup-then-install, at times that let entries expire
// and evict — and logs every outcome and removal in order.
func probeLog(nc *NetworkConfig, tbl *flowtable.Table, horizon float64, seed int64) []string {
	var log []string
	tbl.OnRemove = func(id int, reason flowtable.EvictionReason, at float64) {
		log = append(log, fmt.Sprintf("remove %d reason %d at %v", id, reason, at))
	}
	rng := stats.NewRNG(seed)
	now := horizon
	for i := 0; i < 60; i++ {
		f := flows.ID(rng.Intn(nc.Params.NumFlows))
		id, hit := tbl.Lookup(f, now)
		log = append(log, fmt.Sprintf("lookup %d at %v: %d %v", f, now, id, hit))
		if !hit {
			if j, covered := nc.Rules.HighestCovering(f); covered {
				tbl.Install(j, now)
			}
		}
		now += rng.Exp(1 / nc.Params.Delta)
	}
	tbl.OnRemove = nil
	return log
}

// cacheState reads every rule's Cached/Remaining at now.
func cacheState(nc *NetworkConfig, tbl *flowtable.Table, now float64) []string {
	out := []string{fmt.Sprint(tbl.Cached(now))}
	for j := 0; j < nc.Rules.Len(); j++ {
		rem, ok := tbl.Remaining(j, now)
		out = append(out, fmt.Sprintf("rule %d: %v %v", j, rem, ok))
	}
	return out
}

// TestReplayOnceMatchesPerReplicaReplay holds the trial loop's one
// replay per trial to the per-replica replay it replaced: for every
// attacker, the replica copied from the shared replay must be the table
// a fresh replay would have built — equal Cached/Remaining for every
// rule, and identical outcomes and removal order under a following
// random probe sequence — and a detector fed from the recorded hit mask
// must end with the verdicts and sources of one that observed the live
// replay. The configurations cover small and paper scale, full and
// never-full tables, and idle, mixed and hard timeouts; one scratch
// serves them all, so each replica starts dirty from another size.
func TestReplayOnceMatchesPerReplicaReplay(t *testing.T) {
	small, paper := tinyParams(), DefaultParams()
	neverFull := paper
	neverFull.CacheSize = paper.NumRules
	cases := []struct {
		name      string
		p         Params
		hardRatio float64
		rateScale float64
	}{
		{"small", small, 0, 1},
		{"smallHard", small, 1, 2},
		{"paper", paper, 0, 1},
		{"paperMixed", paper, 0.5, 1},
		{"paperNeverFull", neverFull, 0.5, 1},
		{"paperSparse", paper, 0, 0.05},
	}
	dcfg := detect.DefaultConfig()
	dcfg.Baseline = detect.Baseline{DefaultRate: 0.05, MissFrac: 0.9}
	dcfg.RateZ, dcfg.MissSkewZ, dcfg.MinObs = 1, 1, 3
	sc := new(trialScratch)
	flagged := 0
	for ci, c := range cases {
		for seed := int64(1); seed <= 12; seed++ {
			nc := replayConfig(t, c.p, c.hardRatio, c.rateScale, 100*int64(ci)+seed)
			dcfg.WindowSec = c.p.WindowSeconds
			horizon := float64(c.p.Steps()) * c.p.Delta
			trace, err := PoissonSource(nc.Rates, horizon, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.replay(nc, trace, flowtable.Metrics{}); err != nil {
				t.Fatal(err)
			}
			for att := 0; att < 3; att++ {
				what := fmt.Sprintf("%s seed %d attacker %d", c.name, seed, att)
				fromMask, live := detect.New(dcfg), detect.New(dcfg)
				want, err := replayTrace(nc, trace, flowtable.Metrics{}, live)
				if err != nil {
					t.Fatal(err)
				}
				sc.replica.CopyCacheFrom(&sc.base)
				sc.observeReplay(fromMask)
				if !reflect.DeepEqual(fromMask.Verdicts(), live.Verdicts()) || fromMask.Sources() != live.Sources() {
					t.Fatalf("%s: hit-mask detector %+v (%d sources), live %+v (%d sources)",
						what, fromMask.Verdicts(), fromMask.Sources(), live.Verdicts(), live.Sources())
				}
				flagged += len(fromMask.Verdicts())
				// Alternate reading the state before and after the probes,
				// so the probes also meet the replay's unexpired entries.
				if att%2 == 0 {
					if g, w := cacheState(nc, &sc.replica, horizon), cacheState(nc, want, horizon); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: replica state %v, fresh replay %v", what, g, w)
					}
				}
				if g, w := probeLog(nc, &sc.replica, horizon, seed+int64(att)), probeLog(nc, want, horizon, seed+int64(att)); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: replica probes\n%v\nfresh replay probes\n%v", what, g, w)
				}
				if att%2 == 1 {
					end := horizon + 60*c.p.Delta
					if g, w := cacheState(nc, &sc.replica, end), cacheState(nc, want, end); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: replica state %v, fresh replay %v", what, g, w)
					}
				}
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no detector flagged anything; the verdict comparison is vacuous")
	}
}
