package openflow

import (
	"strings"
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

// TestInjectSpansJoinAcrossWire: the PACKET_IN payload carries the
// switch's SpanContext as a side-band, so the controller's decision span
// adopts the switch's trace and parents under the packet_in span. With
// both sides recording into one registry, a miss yields ONE tree:
// inject → packet_in → controller.decision → flow_mod.
func TestInjectSpansJoinAcrossWire(t *testing.T) {
	universe := flowsUniverse()
	rs := testRules(t)
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5})
	reg := telemetry.NewRegistry()
	reg.EnableSpans(0)
	ctl.SetTelemetry(reg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetTelemetry(reg)
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		ctl.Close()
	})

	tuple := universe.Tuple(0)
	res1, err := sw.Inject(tuple) // miss: full controller round trip
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sw.Inject(tuple) // hit: local lookup only
	if err != nil {
		t.Fatal(err)
	}
	if res1.Hit || !res2.Hit {
		t.Fatalf("outcomes: %v %v", res1.Hit, res2.Hit)
	}

	spans := reg.Spans().Spans()
	find := func(name string) []telemetry.Span {
		var out []telemetry.Span
		for _, s := range spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	injects := find("inject")
	if len(injects) != 2 {
		t.Fatalf("inject spans = %d, want 2", len(injects))
	}
	pins := find("packet_in")
	decs := find("controller.decision")
	fms := find("flow_mod")
	if len(pins) != 1 || len(decs) != 1 || len(fms) != 1 {
		t.Fatalf("miss chain spans: pins=%d decisions=%d flow_mods=%d", len(pins), len(decs), len(fms))
	}
	// Cross-process propagation: the decision span adopted the switch's
	// trace and parents under the packet_in span — no post-hoc join.
	if decs[0].Trace != pins[0].Trace {
		t.Fatalf("decision trace %d != packet_in trace %d", decs[0].Trace, pins[0].Trace)
	}
	if decs[0].Parent != pins[0].ID {
		t.Fatalf("decision parent %d != packet_in span %d", decs[0].Parent, pins[0].ID)
	}
	// The buffer id is still carried as a human-readable cross-check.
	if !strings.Contains(decs[0].Detail, "buffer=") || !strings.Contains(pins[0].Detail, "buffer=") {
		t.Fatalf("buffer detail lost: pin=%q dec=%q", pins[0].Detail, decs[0].Detail)
	}
	// Rule annotations point at the installed rule on both sides.
	if pins[0].Rule != res1.RuleID || fms[0].Rule != res1.RuleID {
		t.Fatalf("rule annotations: pin=%d fm=%d want %d", pins[0].Rule, fms[0].Rule, res1.RuleID)
	}
	// Flow identity survives on every span of the chain.
	for _, s := range [][]telemetry.Span{pins, decs, fms} {
		if s[0].Flow != 0 {
			t.Fatalf("span %s flow = %d", s[0].Name, s[0].Flow)
		}
	}
	// One joined tree: inject → packet_in → controller.decision, with
	// flow_mod under the decision.
	forest := telemetry.BuildSpanForest(spans)
	var missRoot *telemetry.SpanNode
	for _, n := range forest {
		if n.Span.Name == "inject" && n.Span.ID == injects[0].ID {
			missRoot = n
		}
	}
	if missRoot == nil || len(missRoot.Children) != 1 || missRoot.Children[0].Span.Name != "packet_in" {
		t.Fatalf("switch span tree malformed: %+v", missRoot)
	}
	pinNode := missRoot.Children[0]
	if len(pinNode.Children) != 1 || pinNode.Children[0].Span.Name != "controller.decision" {
		t.Fatalf("controller decision not nested under packet_in: %+v", pinNode.Children)
	}
	decNode := pinNode.Children[0]
	if len(decNode.Children) != 1 || decNode.Children[0].Span.Name != "flow_mod" {
		t.Fatalf("flow_mod not nested under decision: %+v", decNode.Children)
	}
	// Hit injects record no packet-in chain.
	hitInject := injects[1]
	if hitInject.Detail != "hit" || hitInject.Rule != res2.RuleID {
		t.Fatalf("hit inject span: %+v", hitInject)
	}
}

// TestSpansJoinAcrossProcesses simulates the two-daemon deployment: the
// switch and controller record into SEPARATE namespaced recorders (as
// ofswitch/ofcontroller do), their JSONL streams are concatenated, and
// BuildSpanForest still yields one tree per miss because the wire-carried
// SpanContext references stay unambiguous across namespaces.
func TestSpansJoinAcrossProcesses(t *testing.T) {
	universe := flowsUniverse()
	rs := testRules(t)
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5})
	ctlReg := telemetry.NewRegistry()
	ctlReg.EnableSpans(0).SetNamespace(2)
	ctl.SetTelemetry(ctlReg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	swReg := telemetry.NewRegistry()
	swReg.EnableSpans(0).SetNamespace(1)
	sw.SetTelemetry(swReg)
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		ctl.Close()
	})

	if _, err := sw.Inject(universe.Tuple(0)); err != nil {
		t.Fatal(err)
	}

	// Concatenate the two processes' streams, as an operator would with
	// two /debug/spans downloads.
	merged := append(swReg.Spans().Spans(), ctlReg.Spans().Spans()...)
	forest := telemetry.BuildSpanForest(merged)
	var root *telemetry.SpanNode
	for _, n := range forest {
		if n.Span.Name == "inject" {
			root = n
		}
	}
	if root == nil {
		t.Fatal("no inject root in merged forest")
	}
	if len(root.Children) != 1 || root.Children[0].Span.Name != "packet_in" {
		t.Fatalf("inject children: %+v", root.Children)
	}
	pin := root.Children[0]
	if len(pin.Children) != 1 || pin.Children[0].Span.Name != "controller.decision" {
		t.Fatalf("decision not joined under packet_in: %+v", pin.Children)
	}
	dec := pin.Children[0]
	if dec.Span.Node != "controller" || pin.Span.Node != "switch" {
		t.Fatalf("node attribution: pin=%q dec=%q", pin.Span.Node, dec.Span.Node)
	}
	if dec.Span.Trace != pin.Span.Trace {
		t.Fatalf("trace mismatch across processes: %d vs %d", dec.Span.Trace, pin.Span.Trace)
	}
	// Distinct namespaces keep the two processes' span IDs disjoint.
	if pin.Span.ID>>40 == dec.Span.ID>>40 {
		t.Fatalf("span namespaces collide: pin=%d dec=%d", pin.Span.ID, dec.Span.ID)
	}
}

// flowsUniverse returns the paper's client-server universe used by the
// span correlation test. Kept separate from testFabric because the spans
// must be enabled on both sides BEFORE the switch connects.
func flowsUniverse() *flows.Universe {
	return flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
}

func testRules(t *testing.T) *rules.Set {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 2},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 2},
		{Name: "r2", Cover: flows.SetOf(2), Priority: 1, Timeout: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}
