package experiment

import "flowrecon/internal/core"

// CoverBucket is one x-axis bin of Figure 7a: the number of rules
// covering the target flow.
type CoverBucket struct {
	NumCovering int
	Accuracy    map[string]float64
	Configs     int
}

// Fig7Result reproduces both panels of Figure 7: the restricted model
// attacker (barred from probing the target even when it is optimal)
// against the naive and random attackers.
type Fig7Result struct {
	// ByCover is Figure 7a.
	ByCover []CoverBucket
	// ByAbsence is Figure 7b.
	ByAbsence []AbsenceBucket
	// Outcomes are per-configuration accuracies.
	Outcomes  []ConfigOutcome
	Attempted int
}

// RunFig7 reproduces Figure 7. Configurations are filtered only by the
// detector-viability of the optimal probe (the restriction of §VI-B); the
// model attacker must probe the best flow other than the target.
func RunFig7(opts FigureOptions) (*Fig7Result, error) {
	outcomes, attempted, err := sampleFigure(opts, (*NetworkConfig).DetectorViable, fig7Roster)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		ByCover:   bucketByCover(outcomes),
		ByAbsence: bucketByAbsence(outcomes, 5),
		Outcomes:  outcomes,
		Attempted: attempted,
	}, nil
}

// fig7Roster pits the restricted model attacker against the naive and
// random attackers.
func fig7Roster(nc *NetworkConfig) ([]core.Attacker, error) {
	restricted, err := core.NewModelAttacker(nc.Selector, nc.Selector.FlowsExcept(nc.Target), 1)
	if err != nil {
		return nil, err
	}
	return []core.Attacker{
		&core.NaiveAttacker{TargetFlow: nc.Target},
		restricted,
		&core.RandomAttacker{PPresent: 1 - nc.PAbsent()},
	}, nil
}

func bucketByCover(outcomes []ConfigOutcome) []CoverBucket {
	maxCover := 0
	for _, o := range outcomes {
		if o.NumCoveringTarget > maxCover {
			maxCover = o.NumCoveringTarget
		}
	}
	buckets := make([]CoverBucket, maxCover+1)
	counts := make([]map[string]int, maxCover+1)
	for i := range buckets {
		buckets[i] = CoverBucket{NumCovering: i, Accuracy: map[string]float64{}}
		counts[i] = map[string]int{}
	}
	for _, o := range outcomes {
		b := &buckets[o.NumCoveringTarget]
		b.Configs++
		for name, acc := range o.Accuracy {
			b.Accuracy[name] += acc
			counts[o.NumCoveringTarget][name]++
		}
	}
	var out []CoverBucket
	for i := range buckets {
		for name, n := range counts[i] {
			if n > 0 {
				buckets[i].Accuracy[name] /= float64(n)
			}
		}
		if buckets[i].Configs > 0 {
			out = append(out, buckets[i])
		}
	}
	return out
}
