// Package defense implements the paper's third countermeasure (§VII-B3):
// using the attacker's own Markov model as a tool to measure how much a
// rule structure leaks about each flow, and transforming the structure
// (merging rules into coarser wildcards) to reduce that leakage while
// preserving forwarding behaviour at the granularity the operator accepts.
package defense

import (
	"fmt"
	"sort"
	"sync"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// FlowLeakage is the leakage measurement for one potential target flow:
// the information (in bits) the best single probe reveals about whether
// that flow occurred within the window.
type FlowLeakage struct {
	Target       flows.ID
	BestProbe    flows.ID
	Gain         float64
	PriorEntropy float64
}

// Profile is the leakage profile of a rule structure.
type Profile struct {
	PerFlow []FlowLeakage
	// MaxGain is the worst-case leakage over target flows.
	MaxGain float64
	// MeanGain averages over target flows.
	MeanGain float64
}

// MeasureLeakage evaluates, for every covered flow as a hypothetical
// target, the information gain of the attacker's optimal probe — the
// quantity a defender wants small everywhere. steps is the attack window
// T in model steps. The per-target selector evaluations fan over workers
// goroutines (≤ 1 runs them inline). Targets are independent (the
// unconditional chain is built once and shared read-only; each target
// builds only its conditioned twin), and the profile is assembled in flow
// order, so every worker count returns the same profile. Every chain is
// built in b (nil for none).
func MeasureLeakage(cfg core.Config, steps, workers int, b *core.Builds) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := core.NewCompactModel(cfg, b)
	if err != nil {
		return nil, err
	}
	covered := cfg.Rules.CoveredFlows()
	var targets []flows.ID
	for f := 0; f < len(cfg.Rates); f++ {
		if covered.Contains(flows.ID(f)) {
			targets = append(targets, flows.ID(f))
		}
	}
	perFlow := make([]*FlowLeakage, len(targets))
	errs := make([]error, len(targets))
	measure := func(i int) {
		sel, err := core.NewSelectorWithModel(model, targets[i], steps)
		if err != nil {
			errs[i] = err
			return
		}
		best, ok := sel.Best(sel.AllFlows())
		if !ok {
			return
		}
		perFlow[i] = &FlowLeakage{
			Target:       targets[i],
			BestProbe:    best.Flow,
			Gain:         best.Gain,
			PriorEntropy: sel.PriorEntropy(),
		}
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers <= 1 {
		for i := range targets {
			measure(i)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					measure(i)
				}
			}()
		}
		for i := range targets {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	prof := &Profile{}
	for i := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if perFlow[i] != nil {
			prof.PerFlow = append(prof.PerFlow, *perFlow[i])
		}
	}
	for _, fl := range prof.PerFlow {
		if fl.Gain > prof.MaxGain {
			prof.MaxGain = fl.Gain
		}
		prof.MeanGain += fl.Gain
	}
	if len(prof.PerFlow) > 0 {
		prof.MeanGain /= float64(len(prof.PerFlow))
	}
	return prof, nil
}

// MergeRules returns a new rule set in which rules a and b are replaced by
// one rule covering their union, keeping the higher priority and the
// longer timeout (so no flow loses coverage and no rule expires sooner
// than before). This is the "merging rules" transform of §VII-B3: coarser
// rules are installed by more flows, so a probe hit identifies the
// target's activity less precisely.
func MergeRules(rs *rules.Set, a, b int) (*rules.Set, error) {
	if a == b || a < 0 || b < 0 || a >= rs.Len() || b >= rs.Len() {
		return nil, fmt.Errorf("defense: bad merge pair (%d, %d)", a, b)
	}
	ra, rb := rs.Rule(a), rs.Rule(b)
	merged := rules.Rule{
		Name:     ra.Name + "+" + rb.Name,
		Cover:    ra.Cover.Union(rb.Cover),
		Priority: maxInt(ra.Priority, rb.Priority),
		Timeout:  maxInt(ra.Timeout, rb.Timeout),
		Kind:     ra.Kind,
	}
	var out []rules.Rule
	for _, r := range rs.Rules() {
		if r.ID == a || r.ID == b {
			continue
		}
		out = append(out, r)
	}
	out = append(out, merged)
	return rules.NewSet(out)
}

// MergeCandidates lists the rule pairs worth trying to merge: pairs whose
// covers overlap or whose priorities are adjacent (merging unrelated rules
// only destroys policy granularity without confusing the attacker's
// dependency reasoning).
func MergeCandidates(rs *rules.Set) [][2]int {
	byPrio := rs.ByPriority()
	var out [][2]int
	seen := map[[2]int]bool{}
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for a := 0; a < rs.Len(); a++ {
		for b := a + 1; b < rs.Len(); b++ {
			if rs.Rule(a).Cover.Overlaps(rs.Rule(b).Cover) {
				add(a, b)
			}
		}
	}
	for i := 0; i+1 < len(byPrio); i++ {
		add(byPrio[i], byPrio[i+1])
	}
	return out
}

// CoarsenStep is one greedy coarsening move.
type CoarsenStep struct {
	MergedA, MergedB int // rule IDs in the pre-merge set
	Rules            *rules.Set
	Profile          *Profile
}

// Coarsen greedily merges rule pairs, each round picking the merge that
// minimizes the worst-case leakage, until the leakage target is met, no
// merge helps, or maxMerges is exhausted. baseline is cfg's own profile
// at the same window, which the caller has already measured; each
// candidate's profile is measured over workers goroutines in b, as in
// MeasureLeakage. It returns the sequence of accepted steps (possibly
// empty when the structure is already tight).
func Coarsen(cfg core.Config, baseline *Profile, steps, workers int, targetMaxGain float64, maxMerges int, b *core.Builds) ([]CoarsenStep, error) {
	current := cfg
	best := baseline.MaxGain
	var out []CoarsenStep
	for round := 0; round < maxMerges && best > targetMaxGain && current.Rules.Len() > 1; round++ {
		type candidate struct {
			pair    [2]int
			rules   *rules.Set
			profile *Profile
		}
		var winner *candidate
		for _, pair := range MergeCandidates(current.Rules) {
			merged, err := MergeRules(current.Rules, pair[0], pair[1])
			if err != nil {
				continue
			}
			trial := current
			trial.Rules = merged
			prof, err := MeasureLeakage(trial, steps, workers, b)
			if err != nil {
				continue
			}
			if winner == nil || prof.MaxGain < winner.profile.MaxGain {
				winner = &candidate{pair: pair, rules: merged, profile: prof}
			}
		}
		if winner == nil || winner.profile.MaxGain >= best {
			break // no merge reduces the worst-case leakage
		}
		current.Rules = winner.rules
		best = winner.profile.MaxGain
		out = append(out, CoarsenStep{
			MergedA: winner.pair[0],
			MergedB: winner.pair[1],
			Rules:   winner.rules,
			Profile: winner.profile,
		})
	}
	return out, nil
}

// RankTargets orders the profile's flows by descending leakage — the
// flows an operator should worry about first.
func (p *Profile) RankTargets() []FlowLeakage {
	out := make([]FlowLeakage, len(p.PerFlow))
	copy(out, p.PerFlow)
	sort.Slice(out, func(i, j int) bool { return out[i].Gain > out[j].Gain })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
