// Quickstart: build the paper's Figure 2c scenario, fit the compact
// Markov model, and let it pick the optimal probe flow.
//
//	go run ./examples/quickstart
//
// The punchline reproduces §III-B: the best probe for target flow f1 is
// NOT f1 itself but f2, because a hit on f2 certifies the high-priority
// rule that only f1 or f2 can install — and f2 is rare.
package main

import (
	"fmt"
	"log"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

func main() {
	if _, _, err := run(); err != nil {
		log.Fatal(err)
	}
}

// run fits the model, prints every candidate probe's evaluation, and
// returns the optimal single probe and the optimal non-adaptive pair.
func run() (best core.ProbeEval, pair core.SequenceEval, err error) {
	// Figure 2c: rule1 covers {f1, f2} at high priority; rule2 covers
	// {f1, f3} at low priority. Flows are indexed f1=0, f2=1, f3=2.
	policy, err := rules.NewSet([]rules.Rule{
		{Name: "rule1", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 6},
		{Name: "rule2", Cover: flows.SetOf(0, 2), Priority: 1, Timeout: 6},
	})
	if err != nil {
		return best, pair, err
	}

	cfg := core.Config{
		Rules:     policy,
		Rates:     []float64{0.07, 0.02, 1.2}, // f1 occasional, f2 rare, f3 chatty
		Delta:     0.25,                       // seconds per model step
		CacheSize: 2,
	}

	// The attacker wants to know: did f1 occur within the last 10 s?
	const target = flows.ID(0)
	steps := 40 // 10 s / Δ
	sel, err := core.NewCompactSelector(cfg, target, steps, nil)
	if err != nil {
		return best, pair, err
	}

	fmt.Printf("prior: P(f1 absent) = %.3f, H(X̂) = %.3f bits\n\n", sel.PAbsent(), sel.PriorEntropy())
	fmt.Println("flow   gain(bits)  P(hit)  P(present|hit)  P(absent|miss)")
	for _, f := range sel.AllFlows() {
		e := sel.Evaluate(f)
		mark := "  "
		if f == target {
			mark = "f̂ "
		}
		fmt.Printf("%s f%d   %.4f      %.3f   %.3f           %.3f\n",
			mark, f+1, e.Gain, e.PHit, e.PostPresentGivenHit, e.PostAbsentGivenMiss)
	}

	best, _ = sel.Best(sel.AllFlows())
	fmt.Printf("\noptimal probe: f%d", best.Flow+1)
	if best.Flow != target {
		fmt.Print("  ← not the target flow (the Figure 2c effect)")
	}
	fmt.Println()

	// Two probes beat one: the non-adaptive pair with the highest joint
	// information gain (§V-B).
	pair, _ = sel.BestSequence(sel.AllFlows(), 2)
	fmt.Printf("best probe pair: f%d then f%d (gain %.4f vs %.4f bits single)\n",
		pair.Flows[0]+1, pair.Flows[1]+1, pair.Gain, best.Gain)
	for _, outcome := range []string{"00", "01", "10", "11"} {
		fmt.Printf("  outcomes %s → P(f1 occurred) = %.3f\n", outcome, pair.PosteriorPresent[outcome])
	}
	return best, pair, nil
}
