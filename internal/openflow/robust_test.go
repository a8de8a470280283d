package openflow

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

// robustPolicy is the shared 3-rule policy of the switch tests.
func robustPolicy(t *testing.T) (*rules.Set, *flows.Universe) {
	t.Helper()
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 4},
		{Name: "r1", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 4},
		{Name: "r2", Cover: flows.SetOf(2), Priority: 1, Timeout: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs, universe
}

// TestSwitchReconnectsAfterConnLoss: killing the control channel
// mid-run must not kill the switch — the receive loop redials with
// backoff and the next probe goes through, with the outage visible in
// switch_reconnects_total.
func TestSwitchReconnectsAfterConnLoss(t *testing.T) {
	rs, universe := robustPolicy(t)
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5})
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sw.SetTelemetry(reg)
	sw.SetReconnect(ReconnectPolicy{
		MaxRetries: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1,
	}, func() (*Conn, error) { return DialTimeout(addr, DefaultDialTimeout) })
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	if _, err := sw.Inject(universe.Tuple(0)); err != nil {
		t.Fatalf("pre-outage inject: %v", err)
	}

	// Hard-kill the control channel out from under the switch.
	sw.currentConn().Close()

	// The next probes may race the redial; retry until the channel heals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := sw.Inject(universe.Tuple(2))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg.Snapshot().Counters["switch_reconnects_total"]; got < 1 {
		t.Fatalf("reconnects counter = %d, want ≥ 1", got)
	}
}

// TestInjectTimeoutRetransmitAndDedup: a slow controller makes the
// first wait window expire, the switch retransmits the same buffer id,
// and the controller answers the duplicate from its dedup cache — the
// application still runs exactly once.
func TestInjectTimeoutRetransmitAndDedup(t *testing.T) {
	rs, universe := robustPolicy(t)
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5, ProcessingDelay: 40 * time.Millisecond})
	reg := telemetry.NewRegistry()
	ctl.SetTelemetry(reg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	swReg := telemetry.NewRegistry()
	sw.SetTelemetry(swReg)
	if err := sw.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	res, err := sw.InjectTimeout(universe.Tuple(0), 10*time.Millisecond, 20)
	if err != nil {
		t.Fatalf("inject with retransmit: %v", err)
	}
	if res.Hit || res.RuleID != 0 {
		t.Fatalf("result = %+v, want miss installing r0", res)
	}
	if got := ctl.PacketIns(); got != 1 {
		t.Fatalf("application ran %d times, want exactly 1 despite retransmits", got)
	}
	if got := swReg.Snapshot().Counters["switch_probe_retries_total"]; got < 1 {
		t.Fatalf("probe retries counter = %d, want ≥ 1", got)
	}
	// Wait for the controller to drain the duplicate PACKET_INs queued
	// behind the first (slow) one, then check the dedup counter.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if reg.Snapshot().Counters["controller_packet_in_dupes_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never observed a duplicate PACKET_IN")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInjectTimeoutGivesUp: when the controller never answers, the
// probe ends in ErrProbeTimeout after its retries — never a hang.
func TestInjectTimeoutGivesUp(t *testing.T) {
	rs, universe := robustPolicy(t)
	// A listener that accepts, handshakes, asks for features, then
	// swallows everything — a wedged controller.
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
		for { // drain and ignore
			if _, _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()

	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	begin := time.Now()
	_, err = sw.InjectTimeout(universe.Tuple(0), 10*time.Millisecond, 2)
	if !errors.Is(err, ErrProbeTimeout) {
		t.Fatalf("want ErrProbeTimeout, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("gave up only after %v", elapsed)
	}
}

// TestChaosLossyControlChannel drives the full TCP stack through a
// lossy, resetting control channel: the controller's listener drops 2%
// of its replies and occasionally resets, the switch injects with
// timeouts + retransmits under a reconnect policy, and every probe must
// terminate (result, explicit timeout, or disconnect — never a hang).
func TestChaosLossyControlChannel(t *testing.T) {
	rs, universe := robustPolicy(t)
	prof := faults.Profile{Seed: 11, LossProb: 0.02, JitterMeanMs: 0.2, ResetProb: 0.005}
	ctl := NewController(rs, universe, ControllerOptions{StepSeconds: 0.5, Faults: prof})
	reg := telemetry.NewRegistry()
	ctl.SetTelemetry(reg)
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// The switch side is lossy too: wrap each dialed transport with its
	// own derived stream (sub = connection ordinal).
	swProf := faults.Profile{Seed: 12, LossProb: 0.02, JitterMeanMs: 0.2}
	var ordinal atomic.Int64
	dialer := func() (*Conn, error) {
		raw, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return NewConn(faults.WrapConn(raw, swProf.Stream(ordinal.Add(1)))), nil
	}

	sw, err := NewSwitch(1, rs, universe, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	swReg := telemetry.NewRegistry()
	sw.SetTelemetry(swReg)
	sw.SetReconnect(ReconnectPolicy{
		MaxRetries: 20, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
		Seed: 3, HandshakeTimeout: 250 * time.Millisecond,
	}, dialer)
	conn, err := dialer()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Start(conn); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	const probes = 150
	completed, lost := 0, 0
	for i := 0; i < probes; i++ {
		_, err := sw.InjectTimeout(universe.Tuple(flows.ID(i%3)), 25*time.Millisecond, 3)
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrProbeTimeout) || errors.Is(err, ErrDisconnected):
			lost++ // explicit loss: the attacker's no-observation case
			time.Sleep(5 * time.Millisecond)
		default:
			// Transient send errors during an outage also classify as
			// lost probes.
			lost++
			time.Sleep(5 * time.Millisecond)
		}
	}
	if completed+lost != probes {
		t.Fatalf("accounting bug: %d + %d != %d", completed, lost, probes)
	}
	if completed < probes/2 {
		t.Fatalf("only %d/%d probes completed under 2%% loss", completed, probes)
	}
	t.Logf("chaos: %d completed, %d lost, reconnects=%d retries=%d dupes=%d",
		completed, lost,
		swReg.Snapshot().Counters["switch_reconnects_total"],
		swReg.Snapshot().Counters["switch_probe_retries_total"],
		reg.Snapshot().Counters["controller_packet_in_dupes_total"])
}

// TestDialDefaultTimeout: a connect bounded by DefaultDialTimeout still
// connects normally and fails fast on a closed port.
func TestDialDefaultTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := DialTimeout(addr, DefaultDialTimeout)
	if err != nil {
		t.Fatalf("dial live listener: %v", err)
	}
	c.Close()
	ln.Close()
	if _, err := DialTimeout(addr, DefaultDialTimeout); err == nil {
		t.Fatal("dial of a closed port succeeded")
	}
}
