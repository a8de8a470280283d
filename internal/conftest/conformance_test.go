package conftest

import (
	"testing"

	"flowrecon/internal/experiment"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
)

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
