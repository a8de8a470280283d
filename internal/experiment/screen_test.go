package experiment

import (
	"fmt"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/stats"
)

// screenTally counts one stratum's draws: generated, rejected by each
// figure's screen, and accepted by each figure's filter.
type screenTally struct {
	drawn, screened6, screened7, accepted6, accepted7 int
}

// checkScreenDraws generates draws seeds 1..n of p without screening,
// recording what each figure's screen says of the unconditional chain,
// and fails t if any flow the screen lemma rules out is a viable
// detector, or if a draw a screen rejects passes that figure's filter.
func checkScreenDraws(t *testing.T, p Params, n int) screenTally {
	t.Helper()
	var tally screenTally
	for seed := int64(1); seed <= int64(n); seed++ {
		var never []bool
		var screened6, screened7 bool
		record := func(pr *core.Prior) bool {
			never = never[:0]
			for _, f := range pr.AllFlows() {
				never = append(never, pr.NeverViable(f))
			}
			screened6, screened7 = fig6Screen(pr), fig7Screen(pr)
			return false
		}
		nc, screened, err := generateConfig(p, nil, stats.NewRNG(seed), nil, record)
		if err != nil {
			continue // no eligible target
		}
		if screened || nc == nil {
			t.Fatalf("seed %d: a screen that rejects nothing screened the draw", seed)
		}
		tally.drawn++
		for f, ruledOut := range never {
			if e := nc.Selector.Evaluate(nc.Selector.AllFlows()[f]); ruledOut && e.DetectorViable() {
				t.Fatalf("seed %d: flow %d ruled out by the screen lemma but viable: %+v", seed, f, e)
			}
		}
		if screened6 {
			tally.screened6++
			if fig6Accept(nc) {
				t.Fatalf("seed %d: Figure 6's screen rejects a draw its filter accepts", seed)
			}
		}
		if screened7 {
			tally.screened7++
			if nc.DetectorViable() {
				t.Fatalf("seed %d: Figure 7's screen rejects a draw its filter accepts", seed)
			}
		}
		if fig6Accept(nc) {
			tally.accepted6++
		}
		if nc.DetectorViable() {
			tally.accepted7++
		}
	}
	return tally
}

// TestFigureScreenSound holds the figure screens to their contract over
// small-scale draws in every absence stratum and, without -short, a few
// paper-scale draws: every flow the screen lemma rules out fails the
// full evaluation's DetectorViable, and no draw a screen rejects passes
// its figure's filter. The low strata must screen some draws, or the
// test would hold vacuously.
func TestFigureScreenSound(t *testing.T) {
	for i := range AbsenceStrata {
		p := SmallParams().WithStratum(i)
		tally := checkScreenDraws(t, p, 150)
		t.Logf("small, absence [%v, %v): %d draws, screened %d (fig6) %d (fig7), accepted %d (fig6) %d (fig7)",
			p.AbsenceLo, p.AbsenceHi, tally.drawn, tally.screened6, tally.screened7, tally.accepted6, tally.accepted7)
		if i == 0 && tally.screened6 == 0 {
			t.Fatalf("stratum %d: no draw screened in %d", i, tally.drawn)
		}
	}
	if testing.Short() {
		t.Log("skipping the paper-scale draws under -short")
		return
	}
	for i := 0; i < 2; i++ {
		p := DefaultParams().WithStratum(i)
		tally := checkScreenDraws(t, p, 4)
		t.Logf("paper, absence [%v, %v): %d draws, screened %d (fig6) %d (fig7)",
			p.AbsenceLo, p.AbsenceHi, tally.drawn, tally.screened6, tally.screened7)
	}
}

// TestScreenKeepsDrawSequence checks that a screened draw takes the same
// draws from its stream as an unscreened one, and that a screened draw
// is exactly one the recorded screen rejects.
func TestScreenKeepsDrawSequence(t *testing.T) {
	p := SmallParams().WithStratum(0)
	screenedAny := false
	for seed := int64(1); seed <= 40; seed++ {
		plain, screenedRNG := stats.NewRNG(seed), stats.NewRNG(seed)
		nc, plainErr := GenerateConfig(p, nil, plain, nil)
		got, screened, err := generateConfig(p, nil, screenedRNG, nil, fig6Screen)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("seed %d: error %v with the screen, %v without", seed, err, plainErr)
		}
		if a, b := plain.Int63(), screenedRNG.Int63(); a != b {
			t.Fatalf("seed %d: the screen moved the stream (%d vs %d)", seed, b, a)
		}
		if err != nil {
			continue
		}
		if screened != (got == nil) {
			t.Fatalf("seed %d: screened %v with configuration %v", seed, screened, got != nil)
		}
		if screened {
			screenedAny = true
			if fig6Accept(nc) {
				t.Fatalf("seed %d: screened a draw Figure 6 accepts", seed)
			}
			continue
		}
		if fmt.Sprint(got.Optimal, got.Restricted, got.TargetEval) != fmt.Sprint(nc.Optimal, nc.Restricted, nc.TargetEval) {
			t.Fatalf("seed %d: a draw the screen passes evaluates differently", seed)
		}
	}
	if !screenedAny {
		t.Fatal("no draw screened; the test does not reach the screen")
	}
}
