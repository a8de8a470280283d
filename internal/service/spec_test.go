package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
)

// FuzzSessionSpec holds the daemon's spec admission — the HTTP decoder
// and SessionSpec.Validate — to its bounds on arbitrary request bodies:
// it never panics, and every spec it accepts has a window of at most
// experiment.MaxSteps steps, at most core.MaxCompactRules rules, mask
// bits, flows, cache entries and probes within the experiment package's
// bounds, no server-side file trace, and a store key.
func FuzzSessionSpec(f *testing.F) {
	for _, spec := range []SessionSpec{
		testSpec("plain", 1, 2, 2),
		{Name: "pcap", Target: experiment.RecordingSpec{Params: testParams(), Trials: 1, Probes: 1,
			Trace: &experiment.TraceSourceSpec{Kind: "pcap", Path: "capture.pcap", FitRates: true}}},
		{Name: "bursty", Detect: true, Target: experiment.RecordingSpec{Params: testParams(), Trials: 3, Probes: 1,
			Trace: &experiment.TraceSourceSpec{Kind: "bursty", BurstFactor: 4}}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		"", "{", "{}", "null", `{"bogusField":1}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":25,"MaskBits":3,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":3,"CacheSize":3,"Delta":1e-300,"WindowSeconds":1e300,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":3,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1,"trace":{"kind":"flowlog","path":"flows.csv"}}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":40,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":-1,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":1000000000,"NumRules":6,"MaskBits":3,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":3,"CacheSize":1000000000,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":1}}`,
		`{"target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":3,"CacheSize":3,"Delta":0.05,"WindowSeconds":5,"AbsenceLo":0.02,"AbsenceHi":0.98},"trials":1,"probes":64}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		p := spec.Target.Params
		if p.Steps() > experiment.MaxSteps || p.Steps() < 1 {
			t.Fatalf("accepted a %d-step window: %+v", p.Steps(), p)
		}
		if p.NumRules > core.MaxCompactRules {
			t.Fatalf("accepted %d rules: %+v", p.NumRules, p)
		}
		if p.MaskBits < 0 || p.MaskBits > experiment.MaxMaskBits || p.NumFlows > experiment.MaxFlows || p.CacheSize > experiment.MaxCacheSize {
			t.Fatalf("accepted out-of-bounds sizes: %+v", p)
		}
		if spec.Target.Probes > experiment.MaxSequenceProbes {
			t.Fatalf("accepted %d probes", spec.Target.Probes)
		}
		if spec.Target.Trace.IsFile() {
			t.Fatalf("accepted a file trace: %+v", spec.Target.Trace)
		}
		if _, err := KeyForTarget(spec.Target); err != nil {
			t.Fatalf("accepted a spec with no store key: %v", err)
		}
	})
}
