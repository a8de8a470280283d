package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

// Serialization of network configurations: the CSV outputs carry only
// per-config summaries, so interesting configurations (a huge improvement,
// a model failure) can be saved exactly and re-run later. The JSON schema
// is a stable contract (every field tagged).

// serializedRule is a rule in portable form.
type serializedRule struct {
	Name     string `json:"name"`
	Flows    []int  `json:"flows"`
	Priority int    `json:"priority"`
	Timeout  int    `json:"timeoutSteps"`
	Kind     string `json:"timeoutKind"`
}

// serializedParams mirrors Params with explicit tags.
type serializedParams struct {
	NumFlows      int     `json:"numFlows"`
	NumRules      int     `json:"numRules"`
	MaskBits      int     `json:"maskBits"`
	CacheSize     int     `json:"cacheSize"`
	DeltaSeconds  float64 `json:"deltaSeconds"`
	WindowSeconds float64 `json:"windowSeconds"`
	AbsenceLo     float64 `json:"absenceLo"`
	AbsenceHi     float64 `json:"absenceHi"`
	// The usum* fields record Params.USum, which the estimator no longer
	// reads; they are written and decoded so saved files keep their form.
	USumExact   int   `json:"usumExactLimit"`
	USumSamples int   `json:"usumMcSamples"`
	USumSeed    int64 `json:"usumSeed"`
}

// SerializedConfig is the portable form of a NetworkConfig.
type SerializedConfig struct {
	Params serializedParams `json:"params"`
	Rules  []serializedRule `json:"rules"`
	Rates  []float64        `json:"ratesPerSecond"`
	Target int              `json:"targetFlow"`
}

// SaveConfig writes nc as indented JSON.
func SaveConfig(w io.Writer, nc *NetworkConfig) error {
	sc := SerializedConfig{
		Params: serializedParams{
			NumFlows:      nc.Params.NumFlows,
			NumRules:      nc.Params.NumRules,
			MaskBits:      nc.Params.MaskBits,
			CacheSize:     nc.Params.CacheSize,
			DeltaSeconds:  nc.Params.Delta,
			WindowSeconds: nc.Params.WindowSeconds,
			AbsenceLo:     nc.Params.AbsenceLo,
			AbsenceHi:     nc.Params.AbsenceHi,
			USumExact:     nc.Params.USum.ExactLimit,
			USumSamples:   nc.Params.USum.MCSamples,
			USumSeed:      nc.Params.USum.Seed,
		},
		Rates:  nc.Rates,
		Target: int(nc.Target),
	}
	for _, r := range nc.Rules.Rules() {
		sr := serializedRule{
			Name:     r.Name,
			Priority: r.Priority,
			Timeout:  r.Timeout,
			Kind:     r.Kind.String(),
		}
		for _, f := range r.Cover.IDs() {
			sr.Flows = append(sr.Flows, int(f))
		}
		sc.Rules = append(sc.Rules, sr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// LoadConfig parses a saved configuration and refits the attacker's model,
// reproducing the original NetworkConfig exactly.
func LoadConfig(r io.Reader) (*NetworkConfig, error) {
	var sc SerializedConfig
	if err := json.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("experiment: decode config: %w", err)
	}
	rl := make([]rules.Rule, len(sc.Rules))
	for i, sr := range sc.Rules {
		cover := flows.NewSet(sc.Params.NumFlows)
		for _, f := range sr.Flows {
			cover.Add(flows.ID(f))
		}
		kind := rules.IdleTimeout
		if sr.Kind == rules.HardTimeout.String() {
			kind = rules.HardTimeout
		}
		rl[i] = rules.Rule{
			Name:     sr.Name,
			Cover:    cover,
			Priority: sr.Priority,
			Timeout:  sr.Timeout,
			Kind:     kind,
		}
	}
	rs, err := rules.NewSet(rl)
	if err != nil {
		return nil, fmt.Errorf("experiment: rebuild rules: %w", err)
	}
	p := Params{
		NumFlows:      sc.Params.NumFlows,
		NumRules:      sc.Params.NumRules,
		MaskBits:      sc.Params.MaskBits,
		CacheSize:     sc.Params.CacheSize,
		Delta:         sc.Params.DeltaSeconds,
		WindowSeconds: sc.Params.WindowSeconds,
		AbsenceLo:     sc.Params.AbsenceLo,
		AbsenceHi:     sc.Params.AbsenceHi,
		USum: USumRecord{
			ExactLimit: sc.Params.USumExact,
			MCSamples:  sc.Params.USumSamples,
			Seed:       sc.Params.USumSeed,
		},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := core.Config{Rules: rs, Rates: sc.Rates, Delta: p.Delta, CacheSize: p.CacheSize}
	target := flows.ID(sc.Target)
	sel, err := core.NewCompactSelector(cfg, target, p.Steps(), nil)
	if err != nil {
		return nil, err
	}
	nc := &NetworkConfig{
		Params:            p,
		Rules:             rs,
		Rates:             sc.Rates,
		Target:            target,
		Core:              cfg,
		Selector:          sel,
		NumCoveringTarget: rules.NumCovering(rs, target),
		TargetEval:        sel.Evaluate(target),
	}
	var ok bool
	nc.Optimal, ok = sel.Best(sel.AllFlows())
	if !ok {
		return nil, fmt.Errorf("experiment: loaded config has no probes")
	}
	nc.Restricted, _ = sel.Best(sel.FlowsExcept(target))
	return nc, nil
}
