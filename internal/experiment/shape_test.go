package experiment

import (
	"fmt"
	"math"
	"testing"
)

// modelAccuracy returns the accuracy of the bucket's model attacker: the
// one named neither "naive" nor "random".
func modelAccuracy(t *testing.T, acc map[string]float64) float64 {
	t.Helper()
	for name, a := range acc {
		if name != "naive" && name != "random" {
			return a
		}
	}
	t.Fatalf("no model attacker among %v", acc)
	return 0
}

// TestFig7ShapeSmallScale pins the shape of Figure 7 at small scale, as
// `experiments -fig7 -scale small -seed N` regenerates it for N = 1, 2:
// in every populated bucket of both panels the restricted model attacker
// stays within 0.04 of the naive attacker and both beat the random
// attacker, and from the [0.4, 0.6) absence bucket upward both
// accuracies rise with the target's absence probability.
func TestFig7ShapeSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figure 7 twice at small scale")
	}
	const within = 0.04
	for _, seed := range []int64{1, 2} {
		res, err := RunFig7(FigureOptions{
			Params:          SmallParams(),
			Configs:         40,
			TrialsPerConfig: 100,
			MaxAttempts:     4000,
			Seed:            seed + 1, // the CLI's -fig7 seed offset
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(bucket string, acc map[string]float64) {
			model, naive, random := modelAccuracy(t, acc), acc["naive"], acc["random"]
			if math.Abs(model-naive) > within || math.Min(model, naive) <= random {
				t.Errorf("seed %d bucket %s: restricted %.3f, naive %.3f, random %.3f; want restricted ≈ naive (±%.2f) > random",
					seed, bucket, model, naive, random, within)
			}
		}
		for _, b := range res.ByCover {
			check(fmt.Sprintf("covering=%d", b.NumCovering), b.Accuracy)
		}
		prevModel, prevNaive := -1.0, -1.0
		for _, b := range res.ByAbsence {
			if b.Configs == 0 {
				continue
			}
			name := fmt.Sprintf("[%.1f, %.1f)", b.Lo, b.Hi)
			check(name, b.Accuracy)
			if b.Lo < 0.4-1e-9 {
				continue
			}
			model, naive := modelAccuracy(t, b.Accuracy), b.Accuracy["naive"]
			if model <= prevModel || naive <= prevNaive {
				t.Errorf("seed %d bucket %s: restricted %.3f, naive %.3f do not rise over the previous populated bucket (%.3f, %.3f)",
					seed, name, model, naive, prevModel, prevNaive)
			}
			prevModel, prevNaive = model, naive
		}
	}
}

// TestFig6MeanImprovementSmallScale pins the sign of Figure 6a's
// population means at small scale, as `experiments -fig6 -scale small
// -seed N` regenerates them for N = 1, 2, 3: the model attacker's mean
// accuracy exceeds the naive attacker's.
func TestFig6MeanImprovementSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figure 6 three times at small scale")
	}
	for _, seed := range []int64{1, 2, 3} {
		res, err := RunFig6(FigureOptions{
			Params:          SmallParams(),
			Configs:         40,
			TrialsPerConfig: 100,
			MaxAttempts:     4000,
			Seed:            seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: model %.4f naive %.4f over %d configs", seed, res.MeanModel, res.MeanNaive, len(res.Outcomes))
		if res.MeanModel <= res.MeanNaive {
			t.Errorf("seed %d: model mean %.4f ≤ naive mean %.4f; Figure 6a's model attacker must beat naive on average",
				seed, res.MeanModel, res.MeanNaive)
		}
	}
}
