package netsim

import (
	"testing"

	"flowrecon/internal/telemetry"
)

// TestEchoSpanTree: with spans enabled, one missing echo produces a causal
// tree echo → hop* → packet_in → controller.decision → flow_mod, all in
// virtual time under one correlation ID, and a subsequent hit produces no
// packet-in chain.
func TestEchoSpanTree(t *testing.T) {
	n, setup, _ := buildEvalNetwork(t, ControllerModel{})
	reg := telemetry.NewRegistry()
	reg.EnableSpans(0)
	n.SetTelemetry(reg)

	miss, err := n.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := n.SendEcho(setup.SourceHosts[0], setup.Destination, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n.sim2().Run()
	if !miss.Missed || hit.Missed {
		t.Fatalf("unexpected outcomes: miss=%v hit=%v", miss.Missed, hit.Missed)
	}
	if miss.Trace == 0 || hit.Trace == 0 || miss.Trace == hit.Trace {
		t.Fatalf("correlation IDs wrong: %d, %d", miss.Trace, hit.Trace)
	}

	spans := reg.Spans().Spans()
	byTrace := func(trace int64) []telemetry.Span {
		var out []telemetry.Span
		for _, s := range spans {
			if s.Trace == trace {
				out = append(out, s)
			}
		}
		return out
	}
	names := func(ss []telemetry.Span) map[string]int {
		m := map[string]int{}
		for _, s := range ss {
			m[s.Name]++
		}
		return m
	}

	missNames := names(byTrace(miss.Trace))
	if missNames["echo"] != 1 {
		t.Fatalf("miss trace: %v", missNames)
	}
	if missNames["packet_in"] == 0 || missNames["controller.decision"] == 0 || missNames["flow_mod"] == 0 {
		t.Fatalf("miss trace lacks the packet-in chain: %v", missNames)
	}
	if missNames["hop"] == 0 {
		t.Fatalf("miss trace has no hop spans: %v", missNames)
	}
	hitNames := names(byTrace(hit.Trace))
	if hitNames["packet_in"] != 0 || hitNames["flow_mod"] != 0 {
		t.Fatalf("hit trace consulted the controller: %v", hitNames)
	}

	// The forest reconstructs with the echo as the root and the chain
	// nested: hop → packet_in → controller.decision → flow_mod.
	forest := telemetry.BuildSpanForest(byTrace(miss.Trace))
	if len(forest) != 1 || forest[0].Span.Name != "echo" {
		t.Fatalf("miss trace forest: %d roots", len(forest))
	}
	var chain []string
	var walk func(node *telemetry.SpanNode, depth int)
	walk = func(node *telemetry.SpanNode, depth int) {
		if node.Span.Name == "packet_in" || node.Span.Name == "controller.decision" || node.Span.Name == "flow_mod" {
			chain = append(chain, node.Span.Name)
		}
		for _, c := range node.Children {
			walk(c, depth+1)
		}
	}
	walk(forest[0], 0)
	want := []string{"packet_in", "controller.decision", "flow_mod"}
	if len(chain) < 3 {
		t.Fatalf("packet-in chain = %v", chain)
	}
	for i, w := range want {
		if chain[i] != w {
			t.Fatalf("chain[%d] = %q, want %q (full: %v)", i, chain[i], w, chain)
		}
	}
	// Span times are virtual: within the simulated horizon, ordered, and
	// the echo span covers the full RTT.
	root := forest[0].Span
	if root.Duration() <= 0 || root.End < miss.SentAt+miss.RTT-1e-9 {
		t.Fatalf("echo span [%v,%v] does not cover RTT %v", root.Start, root.End, miss.RTT)
	}
}

// TestEchoSpansDisabled: without EnableSpans the echo path records
// nothing and the trace ID stays zero.
func TestEchoSpansDisabled(t *testing.T) {
	n, setup, _ := buildEvalNetwork(t, ControllerModel{})
	reg := telemetry.NewRegistry()
	n.SetTelemetry(reg)
	res, err := n.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.sim2().Run()
	if res.Trace != 0 {
		t.Fatalf("trace id %d without span recording", res.Trace)
	}
	if got := reg.Spans(); got != nil {
		t.Fatalf("registry grew a span recorder: %v", got)
	}
}
