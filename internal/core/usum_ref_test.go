package core

import "math"

// This file keeps the per-leaf exact enumeration that the last-slot kernel
// of enumerateFast replaced. It is the oracle of the bit-identity contract
// (usum_test.go): the walk recurses to depth m and evaluates every leaf on
// its own, with a fresh sumGammaSpan call for every range and tail sum and
// a recomputed minimum slack.

// enumerateRef is the reference exact enumeration. It shares enumScratch's
// u/used/ready/dropAt buffers with enumerateFast, so run it on its own
// estimator, and counts its leaves in scr.leaves.
func (e *uEstimator) enumerateRef(cached, touts []int, tab *gammaTables, acc *uAccumulator) {
	m := len(cached)
	maxT := 0
	for _, t := range touts {
		if t > maxT {
			maxT = t
		}
	}
	s := &e.scr
	if cap(s.u) < m {
		s.u = make([]int, m)
	}
	s.u = s.u[:m]
	if cap(s.used) < maxT+2 {
		s.used = make([]bool, maxT+2)
	}
	s.used = s.used[:maxT+2]
	for i := range s.used {
		s.used[i] = false
	}
	if cap(s.ready) < m+1 {
		s.ready = make([][]int, m+1)
	}
	s.ready = s.ready[:m+1]
	for d := range s.ready {
		s.ready[d] = s.ready[d][:0]
	}
	if cap(s.dropAt) < m {
		s.dropAt = make([][]int, m)
	}
	s.dropAt = s.dropAt[:m]
	for d := range s.dropAt {
		if cap(s.dropAt[d]) < maxT+2 {
			s.dropAt[d] = make([]int, maxT+2)
		}
		s.dropAt[d] = s.dropAt[d][:maxT+2]
	}
	s.leaves = 0
	for _, j := range acc.uncached {
		d := 0
		for _, slot := range tab.hp[j] {
			if slot+1 > d {
				d = slot + 1
			}
		}
		s.ready[d] = append(s.ready[d], j)
	}
	full := m >= e.capacity
	e.dfsRef(0, 0, cached, touts, tab, acc, full)
}

func (e *uEstimator) dfsRef(slot int, logp float64, cached, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.scr
	for _, j := range s.ready[slot] {
		logp -= tab.sumGammaRange(j, e.rs.Rule(j).Timeout, s.u)
	}
	m := len(cached)
	if slot == m {
		e.leafRef(logp, touts, tab, acc, full)
		return
	}
	js := cached[slot]
	t := touts[slot]
	hp := tab.hp[js]
	drop := s.dropAt[slot]
	for v := 0; v <= t; v++ {
		drop[v] = 0
	}
	mask := 0
	for b, sl := range hp {
		mask |= 1 << uint(b)
		if ub := s.u[sl]; ub <= t {
			drop[ub] |= 1 << uint(b)
		}
	}
	sumPrefix := 0.0
	gamma, logGamma := tab.gamma[js], tab.logGamma[js]
	for v := 1; v <= t; v++ {
		mask &^= drop[v]
		g := gamma[mask]
		if !s.used[v] && g > 0 {
			s.u[slot] = v
			s.used[v] = true
			e.dfsRef(slot+1, logp+logGamma[mask]-g-sumPrefix, cached, touts, tab, acc, full)
			s.used[v] = false
		}
		sumPrefix += g
	}
}

// leafRef applies the full-table horizon correction and accumulates.
func (e *uEstimator) leafRef(logp float64, touts []int, tab *gammaTables, acc *uAccumulator, full bool) {
	u := e.scr.u
	e.scr.leaves++
	if full {
		minSlack := math.MaxInt32
		for i := range u {
			if s := touts[i] - u[i]; s < minSlack {
				minSlack = s
			}
		}
		if minSlack > 0 {
			for _, j := range acc.uncached {
				t := e.rs.Rule(j).Timeout
				logp += tab.sumGammaSpan(j, t-minSlack, t, u)
			}
		}
	}
	p := math.Exp(logp)
	if p <= 0 {
		return
	}
	accumulateRef(acc, u, p)
}

// accumulateRef is the two-pass fold the reference walk used: the minimum
// slack is recomputed from u.
func accumulateRef(a *uAccumulator, u []int, p float64) {
	a.z += p
	minRem := math.MaxInt32
	for i := range a.cached {
		if rem := a.touts[i] - u[i]; rem < minRem {
			minRem = rem
		}
		if u[i] == a.touts[i] {
			a.timeoutNum[i] += p
		}
	}
	for i := range a.cached {
		if a.touts[i]-u[i] == minRem {
			a.evictNum[i] += p
		}
	}
}
