// Package recon implements the auxiliary reconnaissance primitives the
// paper's threat model assumes the attacker already has (§III-C): the
// switch's flow-table capacity, which "the attacker could obtain …
// through previous attacks [14]" (Leng et al.'s table-overflow inference),
// and rule idle-timeout durations, recoverable from the same timing
// channel by spacing probes.
//
// Everything here works against any implementation of Prober — the bare
// flow table, the virtual-time network simulator, or the real-TCP
// OpenFlow switch.
package recon

import (
	"fmt"

	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
)

// Prober issues one probe flow at a (virtual or real) time and reports
// whether it hit a cached rule. Implementations must reproduce the
// switch's side effects: a miss installs the covering rule, a hit
// refreshes its idle timer.
type Prober interface {
	Probe(f flows.ID, now float64) (hit bool, err error)
}

// TableProber adapts a bare flow table into a Prober.
type TableProber struct {
	Table *flowtable.Table
}

var _ Prober = (*TableProber)(nil)

// Probe implements Prober with the reactive install semantics.
func (p *TableProber) Probe(f flows.ID, now float64) (bool, error) {
	return p.Table.Packet(f, now), nil
}

// InferCapacity estimates the flow-table capacity à la Leng et al. [14]:
// insert k distinct-rule flows back to back, then re-probe the first; it
// misses exactly when the k-th insertion overflowed the table and evicted
// it. candidates must install pairwise-distinct rules (microflows); each
// round consumes a fresh k+1-flow prefix window, so len(candidates) must
// be at least Σ_{k=1..maxCap+1}(k+1). gap is the spacing between probes —
// keep it far below every rule TTL.
func InferCapacity(p Prober, candidates []flows.ID, maxCap int, start, gap float64) (int, error) {
	if maxCap < 1 {
		return 0, fmt.Errorf("recon: maxCap %d < 1", maxCap)
	}
	now := start
	offset := 0
	for k := 1; k <= maxCap+1; k++ {
		if offset+k > len(candidates) {
			return 0, fmt.Errorf("recon: need %d candidate flows, have %d", offset+k, len(candidates))
		}
		window := candidates[offset : offset+k]
		offset += k
		// Fill with k distinct rules, oldest first.
		for _, f := range window {
			if _, err := p.Probe(f, now); err != nil {
				return 0, err
			}
			now += gap
		}
		// Re-probe the first: with k ≤ capacity it is still cached.
		hit, err := p.Probe(window[0], now)
		if err != nil {
			return 0, err
		}
		now += gap
		if !hit {
			// The k-th insertion evicted the oldest entry: the table
			// holds exactly k-1 rules.
			return k - 1, nil
		}
	}
	return 0, fmt.Errorf("recon: no eviction up to %d rules; capacity exceeds maxCap", maxCap)
}

// InferIdleTimeout estimates a rule's idle timeout by spacing probe pairs:
// after any probe the rule is freshly timed (a miss installs it, a hit
// refreshes it), so a follow-up probe after gap g hits iff TTL > g. The
// result brackets the TTL between the largest surviving gap and the
// smallest expiring gap from the given ascending grid: lo < TTL ≤ hi.
// hi is +Inf-like (the last grid value) when no gap expired the rule.
func InferIdleTimeout(p Prober, f flows.ID, grid []float64, start float64) (lo, hi float64, err error) {
	if len(grid) == 0 {
		return 0, 0, fmt.Errorf("recon: empty gap grid")
	}
	now := start
	// Prime: ensure the rule is installed and freshly timed.
	if _, err := p.Probe(f, now); err != nil {
		return 0, 0, err
	}
	lo, hi = 0, grid[len(grid)-1]
	for _, g := range grid {
		if g <= 0 {
			return 0, 0, fmt.Errorf("recon: non-positive gap %v", g)
		}
		now += g
		hit, err := p.Probe(f, now)
		if err != nil {
			return 0, 0, err
		}
		if hit {
			lo = g // survived g of idleness: TTL > g
			continue
		}
		hi = g // expired within g: TTL ≤ g (and the miss reinstalled it)
		return lo, hi, nil
	}
	return lo, hi, nil
}
