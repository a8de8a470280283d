package core

import (
	"fmt"
	"sort"

	"flowrecon/internal/flows"
)

// WindowPoint is one point of a gain-vs-window sweep.
type WindowPoint struct {
	// Steps is the attack window T in model steps.
	Steps int
	// Best is the optimal probe's evaluation at that window.
	Best ProbeEval
	// PAbsent is the target's prior absence probability at that window.
	PAbsent float64
}

// GainVsWindow sweeps the attack window T over the selector's own chains
// and reports the optimal probe's information gain at each value — an
// analysis the paper's setup implies but does not plot: the side channel
// only remembers about one rule TTL, so the gain collapses as the
// question reaches further into the past. Both chains evolve from their
// empty-cache InitialDist; the selector's evolved distributions are left
// untouched.
func (s *ProbeSelector) GainVsWindow(stepsList []int) ([]WindowPoint, error) {
	if len(stepsList) == 0 {
		return nil, fmt.Errorf("core: empty window list")
	}
	windows := append([]int(nil), stepsList...)
	sort.Ints(windows)
	if windows[0] < 1 {
		return nil, fmt.Errorf("core: window must be ≥ 1 step")
	}

	cfg := s.model.ModelConfig()
	out := make([]WindowPoint, 0, len(windows))
	// One pair of working distributions is evolved across the whole
	// sweep; each window's selector borrows (never retains) them.
	d, d0 := s.model.InitialDist(), s.model0.InitialDist()
	prev := 0
	for _, steps := range windows {
		s.model.EvolveInPlace(d, steps-prev)
		s.model0.EvolveInPlace(d0, steps-prev)
		prev = steps
		sel := &ProbeSelector{
			unconditional: unconditional{
				model:   s.model,
				target:  s.target,
				steps:   steps,
				pAbsent: absenceAt(cfg, s.target, steps),
				dist:    d,
			},
			model0: s.model0,
			dist0:  d0,
		}
		best, ok := sel.Best(sel.AllFlows())
		if !ok {
			return nil, fmt.Errorf("core: no probe candidates")
		}
		out = append(out, WindowPoint{Steps: steps, Best: best, PAbsent: sel.pAbsent})
	}
	return out, nil
}

func absenceAt(cfg Config, target flows.ID, steps int) float64 {
	return expNegProduct(cfg.Rates[target], cfg.Delta, steps)
}

func expNegProduct(rate, delta float64, steps int) float64 {
	return clampExp(-rate * delta * float64(steps))
}
