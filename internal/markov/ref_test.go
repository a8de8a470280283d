package markov

import "slices"

// add accumulates p onto the (from, to) entry, appending the entry when
// the row has none yet and ignoring zero probabilities, so tests can
// assemble a chain edge by edge.
func (m *Sparse) add(from, to int, p float64) {
	if p == 0 {
		return
	}
	row := m.rows[from]
	for i := range row {
		if row[i].to == to {
			row[i].p += p
			return
		}
	}
	m.Append(from, to, p)
}

// apply is the reference step the CSR kernels are bit-identical to: a
// scatter over source states in ascending order, skipping zero-mass
// sources (out[to] = Σ_from d[from]·P[from→to]).
func (m *Sparse) apply(d Dist) Dist {
	out := make(Dist, m.n)
	for from, p := range d {
		if p == 0 {
			continue
		}
		for _, e := range m.rows[from] {
			out[e.to] += p * e.p
		}
	}
	return out
}

// evolve advances a distribution T steps by the reference scatter (Eqn 8:
// I_T = Aᵀ I_0).
func (m *Sparse) evolve(d Dist, steps int) Dist {
	cur := slices.Clone(d)
	for i := 0; i < steps; i++ {
		cur = m.apply(cur)
	}
	return cur
}
