package openflow

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

func TestHeaderRoundTrip(t *testing.T) {
	buf, err := Encode(&EchoRequest{Data: []byte("ping")}, 77)
	if err != nil {
		t.Fatal(err)
	}
	msg, h, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.XID != 77 || h.Type != TypeEchoRequest || int(h.Length) != len(buf) {
		t.Fatalf("header = %+v", h)
	}
	echo, ok := msg.(*EchoRequest)
	if !ok || string(echo.Data) != "ping" {
		t.Fatalf("msg = %#v", msg)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	buf, _ := Encode(&Hello{}, 1)
	buf[0] = 0x04 // wrong version
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("wrong version accepted")
	}
	buf, _ = Encode(&Hello{}, 1)
	buf[1] = 99 // unsupported type
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("unknown type accepted")
	}
	buf, _ = Encode(&PacketIn{Data: []byte("x")}, 1)
	if _, _, err := Decode(buf[:HeaderLen+2]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestAllMessagesRoundTrip(t *testing.T) {
	match := Match{Wildcards: 3, DlType: 0x0800, NwProto: 1, NwSrc: 0x0a000100, NwDst: 0x0a000110, TpSrc: 10, TpDst: 20}
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("abc")},
		&EchoReply{Data: []byte("abc")},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 42, NumBuffers: 256, NumTables: 1, Capabilities: 7, Actions: 0xFFF},
		&PacketIn{BufferID: 9, TotalLen: 16, InPort: 3, Reason: ReasonNoMatch, Data: []byte("0123456789abcdef")},
		&FlowMod{Match: match, Cookie: 5, Command: FlowModAdd, IdleTimeout: 10, Priority: 7, BufferID: 9},
		&PacketOut{BufferID: 9, InPort: 3, Data: []byte("payload")},
		&FlowRemoved{Match: match, Cookie: 5, Priority: 7, Reason: RemovedIdleTimeout, DurationSec: 12, IdleTimeout: 10, PacketCount: 3, ByteCount: 99},
		&ErrorMsg{ErrType: 1, Code: 2, Data: []byte("bad")},
	}
	for _, in := range msgs {
		buf, err := Encode(in, 5)
		if err != nil {
			t.Fatalf("%s: %v", in.Type(), err)
		}
		out, h, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", in.Type(), err)
		}
		if h.Type != in.Type() {
			t.Fatalf("type %s decoded as %s", in.Type(), h.Type)
		}
		reenc, err := Encode(out, 5)
		if err != nil {
			t.Fatalf("%s re-encode: %v", in.Type(), err)
		}
		if string(reenc) != string(buf) {
			t.Fatalf("%s: round trip not byte-identical\n in: %x\nout: %x", in.Type(), buf, reenc)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		in := flows.FiveTuple{
			Src: flows.IPv4(src), Dst: flows.IPv4(dst),
			SrcPort: sp, DstPort: dp, Proto: flows.Proto(proto),
		}
		out, err := DecodeTuple(EncodeTuple(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTuple([]byte{1, 2, 3}); err == nil {
		t.Fatal("short tuple accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{TypeHello, TypeError, TypeEchoRequest, TypeEchoReply, TypeFeaturesRequest, TypeFeaturesReply, TypePacketIn, TypeFlowRemoved, TypePacketOut, TypeFlowMod, MsgType(200)} {
		if typ.String() == "" {
			t.Fatalf("empty name for %d", typ)
		}
	}
}

func TestTimeoutSeconds(t *testing.T) {
	if got := timeoutSeconds(10, 0.1); got != 1 {
		t.Fatalf("10 steps × 0.1s = %d, want 1", got)
	}
	if got := timeoutSeconds(15, 0.1); got != 2 {
		t.Fatalf("15 steps × 0.1s = %d, want 2 (ceiling)", got)
	}
	if got := timeoutSeconds(1, 0.001); got != 1 {
		t.Fatalf("minimum = %d, want 1", got)
	}
	if got := timeoutSeconds(1<<20, 1000); got != 0xFFFF {
		t.Fatalf("saturation = %d", got)
	}
}

// testFabric builds a controller + switch pair over loopback TCP with the
// paper's client-server universe.
func testFabric(t *testing.T, capacity int, opts ControllerOptions) (*Switch, *Controller, *flows.Universe, *rules.Set) {
	t.Helper()
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 2},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 2},
		{Name: "r2", Cover: flows.SetOf(2), Priority: 1, Timeout: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.StepSeconds == 0 {
		opts.StepSeconds = 0.5
	}
	ctl := NewController(rs, universe, opts)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(1, rs, universe, capacity, opts.StepSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		ctl.Close()
	})
	return sw, ctl, universe, rs
}

func TestSwitchMissTheHit(t *testing.T) {
	sw, ctl, universe, _ := testFabric(t, 3, ControllerOptions{})
	tuple := universe.Tuple(0)

	res1, err := sw.Inject(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Hit {
		t.Fatal("first packet hit an empty table")
	}
	if res1.RuleID != 0 {
		t.Fatalf("installed rule %d, want r0", res1.RuleID)
	}

	res2, err := sw.Inject(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit {
		t.Fatal("second packet missed despite installed rule")
	}
	if res2.RuleID != 0 {
		t.Fatalf("hit rule %d", res2.RuleID)
	}
	if ctl.PacketIns() != 1 {
		t.Fatalf("controller saw %d packet-ins, want 1", ctl.PacketIns())
	}
}

func TestSwitchPriorityMatch(t *testing.T) {
	sw, _, universe, _ := testFabric(t, 3, ControllerOptions{})
	// Flow 1 is covered by r0 (prio 3) and r1 (prio 2): the miss must
	// install r0.
	res, err := sw.Inject(universe.Tuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleID != 0 {
		t.Fatalf("installed rule %d, want r0", res.RuleID)
	}
	// Flow 2 then misses (r0 does not cover it) and installs r1.
	res, err = sw.Inject(universe.Tuple(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.RuleID != 1 {
		t.Fatalf("flow 2: %+v, want miss installing r1", res)
	}
}

func TestSwitchUncoveredFlowFloods(t *testing.T) {
	sw, ctl, universe, _ := testFabric(t, 3, ControllerOptions{})
	// Flow 3 is covered by no rule: the controller releases the packet
	// without installing anything.
	res, err := sw.Inject(universe.Tuple(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.RuleID != -1 {
		t.Fatalf("uncovered flow: %+v", res)
	}
	if got := sw.CachedRules(); len(got) != 0 {
		t.Fatalf("cached = %v", got)
	}
	if ctl.PacketIns() != 1 {
		t.Fatalf("packet-ins = %d", ctl.PacketIns())
	}
}

func TestSideChannelDelayGap(t *testing.T) {
	// The essence of the attack: a miss (controller round trip, here with
	// an explicit processing delay) takes observably longer than a hit.
	sw, _, universe, _ := testFabric(t, 3, ControllerOptions{ProcessingDelay: 3 * time.Millisecond})
	tuple := universe.Tuple(0)
	miss, err := sw.Inject(tuple)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := sw.Inject(tuple)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit || !hit.Hit {
		t.Fatalf("unexpected outcomes: miss=%+v hit=%+v", miss, hit)
	}
	if miss.Delay < 3*time.Millisecond {
		t.Fatalf("miss delay %v below controller processing delay", miss.Delay)
	}
	if hit.Delay >= miss.Delay {
		t.Fatalf("no timing gap: hit %v vs miss %v", hit.Delay, miss.Delay)
	}
}

func TestSwitchIdleTimeoutExpires(t *testing.T) {
	sw, _, universe, _ := testFabric(t, 3, ControllerOptions{StepSeconds: 0.02}) // 2 steps ≈ 40ms
	if _, err := sw.Inject(universe.Tuple(0)); err != nil {
		t.Fatal(err)
	}
	if got := sw.CachedRules(); len(got) != 1 {
		t.Fatalf("cached = %v", got)
	}
	time.Sleep(80 * time.Millisecond)
	res, err := sw.Inject(universe.Tuple(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("rule survived its idle timeout")
	}
}

func TestSwitchDisconnect(t *testing.T) {
	sw, ctl, universe, _ := testFabric(t, 3, ControllerOptions{ProcessingDelay: 50 * time.Millisecond})
	errCh := make(chan error, 1)
	go func() {
		_, err := sw.Inject(universe.Tuple(0))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the PACKET_IN depart
	ctl.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("inject succeeded despite controller death")
		}
		if !errors.Is(err, ErrDisconnected) {
			t.Logf("inject failed with %v (transport error also acceptable)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("inject did not unblock after disconnect")
	}
}

func TestControllerAddr(t *testing.T) {
	ctl := NewController(nil, nil, ControllerOptions{})
	if _, err := ctl.Addr(); !errors.Is(err, ErrNoListener) {
		t.Fatalf("err = %v", err)
	}
}

func TestFlowRemovedNotification(t *testing.T) {
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	rs, err := rules.NewSet([]rules.Rule{{Name: "r0", Cover: flows.SetOf(0), Priority: 1, Timeout: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.02}) // 2-step rule ≈ 40ms
	reg := telemetry.NewRegistry()
	ctl.SetTelemetry(reg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	sw, err := NewSwitch(1, rs, universe, 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	removals := func() int64 { return reg.Snapshot().Counters["controller_flow_removals_total"] }
	if _, err := sw.Inject(universe.Tuple(0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	// The expired rule is reaped lazily on the next table access.
	if _, err := sw.Inject(universe.Tuple(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for removals() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if removals() == 0 {
		t.Fatal("controller saw no FLOW_REMOVED after an idle timeout")
	}
}

func TestTwoSwitchesShareOneController(t *testing.T) {
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 4},
		{Name: "r1", Cover: flows.SetOf(2), Priority: 1, Timeout: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5})
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	mkSwitch := func(dpid uint64) *Switch {
		sw, err := NewSwitch(dpid, rs, universe, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sw.Close() })
		return sw
	}
	swA, swB := mkSwitch(1), mkSwitch(2)

	// A miss at switch A must not warm switch B: flow tables are per
	// datapath (the paper's per-switch reconnaissance premise).
	if res, err := swA.Inject(universe.Tuple(0)); err != nil || res.Hit {
		t.Fatalf("switch A first inject: %+v %v", res, err)
	}
	if res, err := swB.Inject(universe.Tuple(0)); err != nil || res.Hit {
		t.Fatalf("switch B should still miss: %+v %v", res, err)
	}
	if res, err := swA.Inject(universe.Tuple(0)); err != nil || !res.Hit {
		t.Fatalf("switch A second inject should hit: %+v %v", res, err)
	}
	if ctl.PacketIns() != 2 {
		t.Fatalf("controller packet-ins = %d, want 2", ctl.PacketIns())
	}
}
