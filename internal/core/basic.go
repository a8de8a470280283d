package core

// BasicStateCount evaluates the closed-form state-space size of §IV-A2:
//
//	Σ_{Rules'⊆Rules, |Rules'|≤n} |Rules'|! · Π_{rule_j∈Rules'} (t_j+1)
//
// using elementary symmetric polynomials, so it runs in O(|Rules|·n). The
// result can far exceed what BFS from the empty cache actually reaches
// (reachable states respect clock/order invariants the formula ignores).
// The exact §IV-A chain itself is intractable at the paper's scale, so it
// lives only as a test oracle (basic_ref_test.go), which reports the
// reachable count of small configurations.
func BasicStateCount(timeouts []int, n int) float64 {
	if n > len(timeouts) {
		n = len(timeouts)
	}
	// e[k] = elementary symmetric polynomial of degree k in (t_j + 1).
	e := make([]float64, n+1)
	e[0] = 1
	for _, t := range timeouts {
		x := float64(t + 1)
		for k := n; k >= 1; k-- {
			e[k] += e[k-1] * x
		}
	}
	total, fact := 0.0, 1.0
	for k := 0; k <= n; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		total += fact * e[k]
	}
	return total
}
