package core

import (
	"math"
	"math/bits"

	"flowrecon/internal/rules"
)

// This file keeps the time-step sweep's passes as they were before they
// learned to visit only live slot sets. They visit every set A each step:
// a set holding a slot whose deadline has passed is re-zeroed, multiplied
// by the row and read back as w·0 terms. The production passes skip
// exactly those sets and terms, each of which adds +0 to a non-negative
// finite sum, so the two agree bit for bit; the production rows are
// filled only on the sets the passes read, these on every set. They are
// the production sweep's bit oracle (TestSweepMatchesReference).

// sweepRef is uEstimator.sweep over the reference passes.
func (e *uEstimator) sweepRef(tab *gammaTables, acc *uAccumulator, full bool) {
	s := &e.sw
	n := 1 << uint(len(acc.cached))
	maxT, minT := 0, math.MaxInt
	for _, t := range acc.touts {
		maxT, minT = max(maxT, t), min(minT, t)
	}
	s.steps = maxT
	s.fillMatchWeights(tab, acc.cached, n)
	tail := s.fillRowsRef(e.rs, tab, acc.uncached, n, maxT)
	s.backwardRef(acc.touts, n, maxT, tail)
	acc.z = s.forwardRef(acc, n, maxT, minT, full) * tail
}

// backwardRef fills bwd, from the last step down, with the weight of every
// completion from set A after step c, and keeps in eb, per slot, the
// weight of step t_i landing on A and of everything after it.
func (s *sweepScratch) backwardRef(touts []int, n, maxT int, tail float64) {
	s.bwd = resize(s.bwd, n)
	clear(s.bwd)
	s.bwd[0] = tail
	s.eb = resize(s.eb, len(touts)*n)
	for c := maxT; c >= 1; c-- {
		row := s.row(c, n)
		for a := range s.bwd {
			s.bwd[a] *= row[a]
		}
		for i, t := range touts {
			if t == c {
				copy(s.eb[i*n:(i+1)*n], s.bwd)
			}
		}
		dead := deadlineMask(touts, c-1)
		// Descending, so a's subsets still hold step-c weights.
		for a := n - 1; a >= 0; a-- {
			if a&dead != 0 {
				s.bwd[a] = 0
				continue
			}
			v := s.bwd[a]
			for rem := a; rem != 0; rem &= rem - 1 {
				i := bits.TrailingZeros(uint(rem))
				b := a &^ (1 << uint(i))
				v += s.pw[i*n+b] * s.bwd[b]
			}
			s.bwd[a] = v
		}
	}
}

// forwardRef runs the forward passes over steps 1…maxT, reading each slot's
// pinned numerators into acc just before its step, and returns the
// weight that reaches A = ∅: every slack's, flagged, under a full table;
// the slack-0 pass's otherwise.
func (s *sweepScratch) forwardRef(acc *uAccumulator, n, maxT, minT int, full bool) float64 {
	touts := acc.touts
	all := n - 1
	s.fwd = resize(s.fwd, n)
	s.f0 = resize(s.f0, n)
	s.f1 = resize(s.f1, n)
	clear(s.fwd)
	clear(s.f0)
	clear(s.f1)
	s.fwd[all] = 1
	for c := 1; c <= maxT; c++ {
		if full && c <= minT {
			s.f0[all]++ // slack c−1 starts here
		}
		for i, t := range touts {
			if t == c {
				acc.timeoutNum[i], acc.evictNum[i] = s.pinRef(i, n, full)
			}
		}
		row := s.row(c, n)
		dead := deadlineMask(touts, c)
		ends := dead &^ deadlineMask(touts, c-1) // slots whose deadline is c
		// Ascending, so a's supersets still hold step c−1 weights.
		for a := 0; a <= all; a++ {
			if a&dead != 0 {
				s.fwd[a], s.f0[a], s.f1[a] = 0, 0, 0
				continue
			}
			v, v0, v1 := s.fwd[a], s.f0[a], s.f1[a]
			for rem := all &^ a; rem != 0; rem &= rem - 1 {
				i := bits.TrailingZeros(uint(rem))
				b := a | 1<<uint(i)
				w := s.pw[i*n+a]
				v += w * s.fwd[b]
				if !full {
					continue
				}
				if ends&(1<<uint(i)) != 0 {
					v1 += w * (s.f0[b] + s.f1[b])
				} else {
					v0 += w * s.f0[b]
					v1 += w * s.f1[b]
				}
			}
			s.fwd[a], s.f0[a], s.f1[a] = v*row[a], v0*row[a], v1*row[a]
		}
	}
	if full {
		return s.f1[0]
	}
	return s.fwd[0]
}

// pinRef returns slot i's numerators at step c = t_i, with the forward
// weights still those of step c−1: Eqn 7's from the slack-0 pass and,
// under a full table, Eqn 5's from the all-slack pass.
func (s *sweepScratch) pinRef(i, n int, full bool) (timeoutNum, evictNum float64) {
	bit := 1 << uint(i)
	pw, eb := s.pw[i*n:(i+1)*n], s.eb[i*n:(i+1)*n]
	for a := 0; a < n; a++ {
		if a&bit != 0 {
			continue
		}
		w := pw[a] * eb[a]
		timeoutNum += w * s.fwd[a|bit]
		if full {
			evictNum += w * (s.f0[a|bit] + s.f1[a|bit])
		}
	}
	return timeoutNum, evictNum
}

// deadlineMask returns the slots whose timeout is at most c: those every
// assignment has matched by step c.
func deadlineMask(touts []int, c int) int {
	mask := 0
	for i, t := range touts {
		if t <= c {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// fillRowsRef is fillRows filling every entry of every row, including the
// sets no step reads the row on.
func (s *sweepScratch) fillRowsRef(rs *rules.Set, tab *gammaTables, uncached []int, n, maxT int) (tail float64) {
	s.byT = append(s.byT[:0], uncached...)
	for p := 1; p < len(s.byT); p++ {
		for q := p; q > 0 && rs.Rule(s.byT[q]).Timeout > rs.Rule(s.byT[q-1]).Timeout; q-- {
			s.byT[q], s.byT[q-1] = s.byT[q-1], s.byT[q]
		}
	}
	tailSum := 0.0
	for _, j := range s.byT {
		if t := rs.Rule(j).Timeout; t > maxT {
			tailSum += float64(t-maxT) * tab.gamma[j][0]
		}
	}
	s.un = resize(s.un, n)
	clear(s.un)
	s.rows = resize(s.rows, (len(s.byT)+1)*n)
	s.rowOf = resize(s.rowOf, maxT+1)
	rows, next := 0, 0
	for c := maxT; c >= 1; c-- {
		joined := false
		for ; next < len(s.byT) && rs.Rule(s.byT[next]).Timeout >= c; next++ {
			for a, g := range s.project(tab, s.byT[next], n) {
				s.un[a] += g
			}
			joined = true
		}
		if joined || rows == 0 {
			row := s.rows[rows*n : (rows+1)*n]
			for a := range row {
				row[a] = math.Exp(-s.cr[a] - s.un[a])
			}
			rows++
		}
		s.rowOf[c] = rows - 1
	}
	return math.Exp(-tailSum)
}
