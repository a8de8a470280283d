package openflow

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
)

// assertNoOrphans fails if any span is still open (End never called) or
// ends before it starts — the invariant the InjectTimeout exit paths
// guarantee even for probes that time out, disconnect, or fail to send.
func assertNoOrphans(t *testing.T, spans []telemetry.Span) {
	t.Helper()
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("orphaned span (never ended): %+v", s)
		}
	}
}

// TestSpansNoOrphansOnProbeTimeout: a wedged controller swallows every
// PACKET_IN; the probe must end in ErrProbeTimeout with its inject and
// packet_in spans both finished and annotated, not left open.
func TestSpansNoOrphansOnProbeTimeout(t *testing.T) {
	universe := flowsUniverse()
	rs := testRules(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(raw)
		_ = conn.Handshake()
		for { // a wedged controller: drain and never answer
			if _, _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()

	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	reg.EnableSpans(0)
	sw.SetTelemetry(reg)
	if err := sw.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	_, err = sw.InjectTimeout(universe.Tuple(0), 10*time.Millisecond, 2)
	if !errors.Is(err, ErrProbeTimeout) {
		t.Fatalf("want ErrProbeTimeout, got %v", err)
	}

	spans := reg.Spans().Spans()
	assertNoOrphans(t, spans)
	var inject, pin *telemetry.Span
	for i := range spans {
		switch spans[i].Name {
		case "inject":
			inject = &spans[i]
		case "packet_in":
			pin = &spans[i]
		}
	}
	if inject == nil || pin == nil {
		t.Fatalf("timeout probe lost spans: %+v", spans)
	}
	if inject.Detail != "timeout" {
		t.Fatalf("inject detail = %q, want timeout", inject.Detail)
	}
	if pin.Trace != inject.Trace || pin.Parent != inject.ID {
		t.Fatalf("packet_in cross-wired: %+v under %+v", pin, inject)
	}
}

// TestSpansNoCrossWireOnRetransmit: duplicate PACKET_INs (retransmits
// answered by the controller's dedup cache) must produce exactly one
// decision span, parented under the retransmitted probe's own packet_in
// — never under another trace.
func TestSpansNoCrossWireOnRetransmit(t *testing.T) {
	universe := flowsUniverse()
	rs := testRules(t)
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5, ProcessingDelay: 40 * time.Millisecond})
	ctlReg := telemetry.NewRegistry()
	ctlReg.EnableSpans(0).SetNamespace(SpanNamespaceController)
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
	swReg.EnableSpans(0).SetNamespace(SpanNamespaceSwitch)
	sw.SetTelemetry(swReg)
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		ctl.Close()
	})

	// 10ms timeout against a 40ms decision forces several retransmits.
	res, err := sw.InjectTimeout(universe.Tuple(0), 10*time.Millisecond, 20)
	if err != nil {
		t.Fatalf("inject with retransmit: %v", err)
	}
	if res.Hit {
		t.Fatalf("result = %+v, want miss", res)
	}
	if got := swReg.Snapshot().Counters["switch_probe_retries_total"]; got < 1 {
		t.Fatalf("no retransmit happened (retries=%d); test proves nothing", got)
	}

	swSpans := swReg.Spans().Spans()
	assertNoOrphans(t, swSpans)
	var pins, decs []telemetry.Span
	for _, s := range swSpans {
		if s.Name == "packet_in" {
			pins = append(pins, s)
		}
	}
	for _, s := range ctlReg.Spans().Spans() {
		if s.Name == "controller.decision" {
			decs = append(decs, s)
		}
	}
	if len(pins) != 1 {
		t.Fatalf("retransmits opened %d packet_in spans, want 1", len(pins))
	}
	if len(decs) != 1 {
		t.Fatalf("dedup failed: %d decision spans, want 1", len(decs))
	}
	if decs[0].Trace != pins[0].Trace || decs[0].Parent != pins[0].ID {
		t.Fatalf("decision cross-wired: %+v under pin %+v", decs[0], pins[0])
	}
}

// TestSpansUnderChaosNeverOrphanOrCrossWire drives the full TCP stack
// through a lossy, resetting control channel with reconnects armed, then
// audits the merged two-process span streams: every span closed, every
// controller decision joined to a packet_in of the SAME trace, and no
// trace with more than one decision chain.
func TestSpansUnderChaosNeverOrphanOrCrossWire(t *testing.T) {
	universe := flowsUniverse()
	rs := testRules(t)
	prof := faults.Profile{Seed: 11, LossProb: 0.05, JitterMeanMs: 0.2, ResetProb: 0.01}
	ctl := NewController(rs, universe, ControllerOptions{
		StepSeconds: 0.5, ProcessingDelay: time.Millisecond, Faults: prof,
	})
	ctlReg := telemetry.NewRegistry()
	ctlReg.EnableSpans(0).SetNamespace(SpanNamespaceController)
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
	swReg.EnableSpans(0).SetNamespace(SpanNamespaceSwitch)
	sw.SetTelemetry(swReg)

	swProf := faults.Profile{Seed: 12, LossProb: 0.05, JitterMeanMs: 0.2}
	var ordinal atomic.Int64
	dialer := func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err != nil {
			return nil, err
		}
		return NewConn(faults.WrapConn(raw, swProf.Stream(ordinal.Add(1)))), nil
	}
	sw.SetReconnect(ReconnectPolicy{MaxRetries: 8, Seed: 12}, dialer)
	conn, err := dialer()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Start(conn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		ctl.Close()
	})

	const probes = 60
	for i := 0; i < probes; i++ {
		tuple := universe.Tuple(0)
		if i%2 == 1 {
			tuple = universe.Tuple(2)
		}
		_, err := sw.InjectTimeout(tuple, 20*time.Millisecond, 3)
		if err != nil && !errors.Is(err, ErrProbeTimeout) && !errors.Is(err, ErrDisconnected) {
			t.Fatalf("probe %d: unexpected terminal error %v", i, err)
		}
	}

	swSpans := swReg.Spans().Spans()
	assertNoOrphans(t, swSpans)
	injects := map[int64]bool{}
	pinByTrace := map[int64]telemetry.Span{}
	for _, s := range swSpans {
		switch s.Name {
		case "inject":
			if injects[s.Trace] {
				t.Fatalf("trace %d has two inject roots", s.Trace)
			}
			injects[s.Trace] = true
		case "packet_in":
			if _, dup := pinByTrace[s.Trace]; dup {
				t.Fatalf("trace %d has two packet_in spans", s.Trace)
			}
			pinByTrace[s.Trace] = s
		}
	}
	if len(injects) != probes {
		t.Fatalf("%d inject roots, want %d", len(injects), probes)
	}

	// Dropped and reset PACKET_INs are fine — but every decision the
	// controller DID record must join the right probe, exactly once.
	decsByTrace := map[int64]int{}
	for _, s := range ctlReg.Spans().Spans() {
		if s.Name != "controller.decision" {
			continue
		}
		pin, ok := pinByTrace[s.Trace]
		if !ok {
			t.Fatalf("decision on unknown trace %d (cross-wired?): %+v", s.Trace, s)
		}
		if s.Parent != pin.ID {
			t.Fatalf("decision parent %d != packet_in %d on trace %d", s.Parent, pin.ID, s.Trace)
		}
		decsByTrace[s.Trace]++
		if decsByTrace[s.Trace] > 1 {
			t.Fatalf("trace %d accumulated %d decisions", s.Trace, decsByTrace[s.Trace])
		}
	}
	if len(decsByTrace) == 0 {
		t.Fatal("chaos dropped every decision; loosen the fault profile")
	}
}
