package openflow

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// Span-ID namespaces for the two TCP daemons (telemetry.SetNamespace):
// with disjoint namespaces the switch's and controller's span JSONL
// streams concatenate into one joined forest per probe, no remapping.
const (
	SpanNamespaceSwitch     = 1
	SpanNamespaceController = 2
)

// Switch is a user-space OpenFlow switch agent: it owns a flow table,
// answers lookups locally on a hit, and on a miss raises a PACKET_IN to
// the controller and blocks the packet until the FLOW_MOD / PACKET_OUT
// round trip completes — the delay that creates the paper's side channel.
type Switch struct {
	dpid     uint64
	rules    *rules.Set
	universe *flows.Universe
	start    time.Time

	connMu sync.Mutex // guards the conn pointer across reconnects
	conn   *Conn

	mu          sync.Mutex
	table       *flowtable.Table
	pending     map[uint32]chan bool     // buffer id → "rule installed?"
	pendingEcho map[uint32]chan struct{} // echo xid → reply arrival
	nextBuf     uint32

	// Reconnection state (see ReconnectPolicy). dialer re-establishes the
	// control channel; nil disables reconnection (the pre-existing
	// fail-fast behavior).
	pol     ReconnectPolicy
	dialer  func() (*Conn, error)
	backoff *stats.RNG // jitter stream, seeded for reproducible schedules
	closed  atomic.Bool
	stop    chan struct{}

	reg *telemetry.Registry
	tm  switchMetrics // resolved instruments (zero = disabled)

	done chan struct{}
	err  error
}

// switchMetrics are the switch agent's telemetry instruments.
type switchMetrics struct {
	injects       *telemetry.Counter
	hits          *telemetry.Counter
	misses        *telemetry.Counter
	hitDelay      *telemetry.Histogram    // seconds; effectively the hot-path cost
	missDelay     *telemetry.Histogram    // seconds; one controller round trip
	echoRTT       *telemetry.Histogram    // seconds; control-channel echo RTT
	reconnects    *telemetry.Counter      // successful control-channel re-establishments
	probeRetries  *telemetry.Counter      // PACKET_IN retransmissions
	probeTimeouts *telemetry.Counter      // probes abandoned after all retries
	spans         *telemetry.SpanRecorder // wall-clock causal spans
	events        *telemetry.EventLog     // wide events (probe outcomes, reconnects)
}

// SetTelemetry attaches the switch (its flow table, its connection once
// established, and its probe/echo instruments) to a registry. Call before
// Connect/Start. A nil registry disables telemetry.
func (s *Switch) SetTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.table.SetTelemetry(reg, "switch")
	s.tm = switchMetrics{
		injects:       reg.Counter("switch_injects_total"),
		hits:          reg.Counter("switch_inject_results_total", "result", "hit"),
		misses:        reg.Counter("switch_inject_results_total", "result", "miss"),
		hitDelay:      reg.Histogram("switch_inject_delay_seconds", nil, "result", "hit"),
		missDelay:     reg.Histogram("switch_inject_delay_seconds", nil, "result", "miss"),
		echoRTT:       reg.Histogram("openflow_echo_rtt_seconds", nil),
		reconnects:    reg.Counter("switch_reconnects_total"),
		probeRetries:  reg.Counter("switch_probe_retries_total"),
		probeTimeouts: reg.Counter("switch_probe_timeouts_total"),
		spans:         reg.Spans(),
		events:        reg.Events(),
	}
	if c := s.currentConn(); c != nil {
		c.SetTelemetry(reg, "switch")
	}
}

// NewSwitch builds a switch over the shared policy. capacity and stepSec
// configure its flow table exactly as flowtable.New does.
func NewSwitch(dpid uint64, rs *rules.Set, universe *flows.Universe, capacity int, stepSec float64) (*Switch, error) {
	tbl, err := flowtable.New(rs, capacity, stepSec)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		dpid:        dpid,
		rules:       rs,
		universe:    universe,
		table:       tbl,
		pending:     make(map[uint32]chan bool),
		pendingEcho: make(map[uint32]chan struct{}),
		start:       time.Now(),
		done:        make(chan struct{}),
		stop:        make(chan struct{}),
	}
	// Report expirations and evictions to the controller, as OpenFlow's
	// OFPFF_SEND_FLOW_REM does.
	tbl.OnRemove = s.notifyRemoved
	return s, nil
}

// currentConn returns the live control-channel connection (nil before
// Start). Reconnection swaps the pointer, so writers must fetch it per
// operation rather than caching it.
func (s *Switch) currentConn() *Conn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.conn
}

func (s *Switch) setConn(c *Conn) {
	s.connMu.Lock()
	s.conn = c
	s.connMu.Unlock()
}

// notifyRemoved sends a FLOW_REMOVED for a rule leaving the table.
func (s *Switch) notifyRemoved(ruleID int, reason flowtable.EvictionReason, now float64) {
	conn := s.currentConn()
	if conn == nil {
		return
	}
	r := s.rules.Rule(ruleID)
	msg := &FlowRemoved{
		Cookie:      uint64(ruleID),
		Priority:    uint16(r.Priority),
		DurationSec: uint32(now),
	}
	switch {
	case reason == flowtable.ReasonEvicted:
		msg.Reason = RemovedDelete
	case r.Kind == rules.HardTimeout:
		msg.Reason = RemovedHardTimeout
	default:
		msg.Reason = RemovedIdleTimeout
	}
	// Best effort: a failed notification surfaces via the receive loop.
	_, _ = conn.Send(msg)
}

// ReconnectPolicy arms the switch's control-channel self-healing: when
// the connection to the controller dies (or an injected fault resets
// it), the receive loop redials with capped exponential backoff and
// jittered retry instead of failing the daemon. The zero value disables
// reconnection, preserving the original fail-fast behavior.
type ReconnectPolicy struct {
	// MaxRetries bounds redial attempts per outage (0 = no reconnect).
	MaxRetries int
	// BaseDelay is the first backoff delay (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterFrac spreads each delay uniformly by ±frac (default 0.2) so
	// a fleet of switches does not redial in lockstep.
	JitterFrac float64
	// Seed drives the jitter stream; equal seeds give identical backoff
	// schedules, keeping chaos tests reproducible.
	Seed int64
	// HandshakeTimeout bounds the HELLO exchange on each redial
	// (default DefaultHandshakeTimeout). A lossy channel can eat a HELLO;
	// the bound turns that into one more failed attempt instead of a
	// wedged reconnect loop.
	HandshakeTimeout time.Duration
}

func (p ReconnectPolicy) enabled() bool { return p.MaxRetries > 0 }

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = 0.2
	}
	if p.HandshakeTimeout <= 0 {
		p.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return p
}

// SetReconnect arms reconnection with the given policy and dialer (the
// function that re-establishes the raw control channel). Call before
// Start/Connect.
func (s *Switch) SetReconnect(pol ReconnectPolicy, dialer func() (*Conn, error)) {
	s.pol = pol.withDefaults()
	s.dialer = dialer
	s.backoff = stats.NewRNG(pol.Seed)
}

// ErrClosed is returned when an operation races with Close.
var ErrClosed = errors.New("openflow: switch closed")

// redial re-establishes the control channel under the reconnect policy:
// sleep (with jitter), dial, handshake; double the delay on failure up
// to the cap. Each success counts in switch_reconnects_total.
func (s *Switch) redial() (*Conn, error) {
	delay := s.pol.BaseDelay
	var lastErr error
	for attempt := 0; attempt < s.pol.MaxRetries; attempt++ {
		d := delay
		if s.backoff != nil {
			d = time.Duration(float64(d) * (1 + s.pol.JitterFrac*(2*s.backoff.Float64()-1)))
		}
		select {
		case <-time.After(d):
		case <-s.stop:
			return nil, ErrClosed
		}
		conn, err := s.dialer()
		if err == nil {
			if s.reg != nil {
				conn.SetTelemetry(s.reg, "switch")
			}
			if herr := conn.HandshakeTimeout(s.pol.HandshakeTimeout); herr == nil {
				s.tm.reconnects.Inc()
				ev := telemetry.NewWideEvent("switch.reconnect")
				ev.Node = "switch"
				ev.T = s.now()
				ev.Detail = fmt.Sprintf("attempt=%d", attempt+1)
				s.tm.events.Emit(ev)
				return conn, nil
			} else {
				lastErr = herr
				conn.Close()
			}
		} else {
			lastErr = err
		}
		delay *= 2
		if delay > s.pol.MaxDelay {
			delay = s.pol.MaxDelay
		}
	}
	return nil, fmt.Errorf("switch reconnect: %d attempts exhausted: %w", s.pol.MaxRetries, lastErr)
}

// Connect dials the controller (bounded by DefaultHandshakeTimeout),
// handshakes, answers the features request, and starts the receive loop.
// Call Close to stop.
func (s *Switch) Connect(addr string) error {
	conn, err := DialTimeout(addr, DefaultHandshakeTimeout)
	if err != nil {
		return err
	}
	return s.Start(conn)
}

// Start runs the switch over an established connection (used directly in
// tests with a pipe transport).
func (s *Switch) Start(conn *Conn) error {
	s.setConn(conn)
	if s.reg != nil {
		conn.SetTelemetry(s.reg, "switch")
	}
	if err := conn.Handshake(); err != nil {
		conn.Close()
		return fmt.Errorf("switch handshake: %w", err)
	}
	go s.recvLoop()
	return nil
}

// Close tears down the connection, cancels any in-flight reconnect
// backoff, and waits for the receive loop to exit.
func (s *Switch) Close() error {
	conn := s.currentConn()
	if conn == nil {
		return nil
	}
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
	}
	err := conn.Close()
	<-s.done
	return err
}

// Err returns the receive loop's terminal error (nil until Close, or the
// underlying failure).
func (s *Switch) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

func (s *Switch) now() float64 { return time.Since(s.start).Seconds() }

// recvLoop services controller-to-switch messages. When a reconnect
// policy is armed, a dead connection fails the in-flight waiters (they
// see an explicit loss, never a hang) and the loop redials with backoff
// instead of exiting.
func (s *Switch) recvLoop() {
	defer close(s.done)
	for {
		conn := s.currentConn()
		msg, h, err := conn.Recv()
		if err != nil {
			s.failPending()
			if s.closed.Load() || !s.pol.enabled() || s.dialer == nil {
				s.err = err
				return
			}
			conn.Close()
			next, rerr := s.redial()
			if rerr != nil {
				s.err = rerr
				return
			}
			s.setConn(next)
			continue
		}
		// A failed send means the connection is broken; the next Recv
		// surfaces it, so handler errors just cycle the loop.
		switch m := msg.(type) {
		case *FeaturesRequest:
			reply := &FeaturesReply{DatapathID: s.dpid, NumBuffers: 256, NumTables: 1}
			_ = conn.SendXID(reply, h.XID)
		case *EchoRequest:
			_ = conn.SendXID(&EchoReply{Data: m.Data}, h.XID)
		case *FlowMod:
			s.handleFlowMod(m)
		case *PacketOut:
			s.release(m.BufferID, false)
		case *EchoReply:
			s.releaseEcho(h.XID)
		case *Hello, *ErrorMsg:
			// ignored
		}
	}
}

// handleFlowMod installs (or deletes) the rule identified by the cookie
// and releases the buffered packet, if any.
func (s *Switch) handleFlowMod(m *FlowMod) {
	ruleID := int(m.Cookie)
	if ruleID < 0 || ruleID >= s.rules.Len() {
		return
	}
	s.mu.Lock()
	switch m.Command {
	case FlowModAdd:
		s.table.Install(ruleID, s.now())
	case FlowModDelete:
		s.table.Remove(ruleID, s.now())
	}
	s.mu.Unlock()
	if m.BufferID != 0 {
		s.release(m.BufferID, true)
	}
}

// release completes a blocked Inject call.
func (s *Switch) release(bufferID uint32, installed bool) {
	s.mu.Lock()
	ch, ok := s.pending[bufferID]
	if ok {
		delete(s.pending, bufferID)
	}
	s.mu.Unlock()
	if ok {
		ch <- installed
	}
}

// releaseEcho completes a blocked Echo call.
func (s *Switch) releaseEcho(xid uint32) {
	s.mu.Lock()
	ch, ok := s.pendingEcho[xid]
	if ok {
		delete(s.pendingEcho, xid)
	}
	s.mu.Unlock()
	if ok {
		close(ch)
	}
}

// abandon discards a pending buffer without completing the waiter (the
// waiter itself timed out and is walking away).
func (s *Switch) abandon(bufferID uint32) {
	s.mu.Lock()
	delete(s.pending, bufferID)
	s.mu.Unlock()
}

// failPending unblocks all waiters when the connection dies.
func (s *Switch) failPending() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ch := range s.pending {
		delete(s.pending, id)
		close(ch)
	}
	for xid, ch := range s.pendingEcho {
		delete(s.pendingEcho, xid)
		close(ch)
	}
}

// ErrEchoTimeout is returned by Echo when the reply does not arrive in
// time.
var ErrEchoTimeout = errors.New("openflow: echo timed out")

// Echo measures one control-channel round trip: it sends an ECHO_REQUEST
// to the controller and blocks until the matching ECHO_REPLY or the
// timeout (0 = DefaultHandshakeTimeout). The RTT feeds the
// openflow_echo_rtt_seconds histogram.
func (s *Switch) Echo(timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		timeout = DefaultHandshakeTimeout
	}
	conn := s.currentConn()
	xid := conn.XID()
	ch := make(chan struct{})
	s.mu.Lock()
	s.pendingEcho[xid] = ch
	s.mu.Unlock()
	begin := time.Now()
	if err := conn.SendXID(&EchoRequest{}, xid); err != nil {
		s.releaseEcho(xid)
		return 0, err
	}
	select {
	case <-ch:
		rtt := time.Since(begin)
		s.tm.echoRTT.Observe(rtt.Seconds())
		return rtt, nil
	case <-time.After(timeout):
		s.releaseEcho(xid)
		return 0, ErrEchoTimeout
	case <-s.done:
		return 0, ErrDisconnected
	}
}

// InjectResult describes one packet's fate at the switch.
type InjectResult struct {
	// Hit reports whether a cached rule matched.
	Hit bool
	// RuleID is the matched or installed rule (-1 if the policy covers
	// no rule for the flow).
	RuleID int
	// Delay is the observed forwarding delay: effectively zero on a hit,
	// one controller round trip on a miss. This is the side channel.
	Delay time.Duration
}

// ErrDisconnected is returned by Inject when the controller connection
// fails mid-request.
var ErrDisconnected = errors.New("openflow: controller connection lost")

// ErrProbeTimeout is returned by InjectTimeout when no controller
// response arrives within the deadline after all retransmissions — the
// TCP substrate's "lost probe" signal. Attackers classify it as an
// explicit no-observation instead of wedging the trial.
var ErrProbeTimeout = errors.New("openflow: probe timed out")

// Inject offers a packet to the switch, blocking through the controller
// round trip on a miss, and reports whether it hit plus the delay the
// packet suffered — the quantity the paper's attacker measures.
func (s *Switch) Inject(t flows.FiveTuple) (InjectResult, error) {
	return s.InjectTimeout(t, 0, 0)
}

// InjectTimeout is Inject with a per-wait deadline and PACKET_IN
// retransmission: when the controller response does not arrive within
// timeout, the same buffered PACKET_IN (same buffer id, so the
// controller can dedup the retransmit) is resent up to retries times
// before the probe is abandoned with ErrProbeTimeout. timeout ≤ 0 waits
// forever (the original Inject behavior).
func (s *Switch) InjectTimeout(t flows.FiveTuple, timeout time.Duration, retries int) (InjectResult, error) {
	fid, known := s.universe.Lookup(t)
	begin := time.Now()
	s.tm.injects.Inc()
	startSec := s.now()
	var inj telemetry.SpanID
	var injTrace int64
	if s.tm.spans != nil {
		injTrace = s.tm.spans.NewTrace()
		inj = s.tm.spans.Start(injTrace, 0, "inject", "switch", startSec)
		s.tm.spans.Annotate(inj, int(fid), -1, "")
	}
	if known {
		s.mu.Lock()
		ruleID, hit := s.table.Lookup(fid, s.now())
		s.mu.Unlock()
		if hit {
			delay := time.Since(begin)
			s.tm.hits.Inc()
			s.tm.hitDelay.Observe(delay.Seconds())
			if s.tm.spans != nil {
				s.tm.spans.Annotate(inj, -1, ruleID, "hit")
				s.tm.spans.End(inj, s.now())
			}
			if s.tm.events != nil {
				ev := telemetry.NewWideEvent("switch.probe")
				ev.Node = "switch"
				ev.T = s.now()
				ev.Flow = int(fid)
				ev.Rule = ruleID
				ev.Trace = injTrace
				ev.Outcome = "hit"
				ev.DelayMs = float64(delay) / float64(time.Millisecond)
				s.tm.events.Emit(ev)
			}
			return InjectResult{Hit: true, RuleID: ruleID, Delay: delay}, nil
		}
	}

	// Miss: buffer the packet and raise a PACKET_IN.
	s.mu.Lock()
	s.nextBuf++
	buf := s.nextBuf
	ch := make(chan bool, 1)
	s.pending[buf] = ch
	s.mu.Unlock()

	// The PACKET_IN carries the switch's SpanContext as a payload
	// side-band (see EncodeTupleContext), so the controller starts its
	// decision span under this packet_in span and the two processes'
	// streams merge into ONE tree per probe. The buffer id stays in the
	// detail string as a human-readable cross-check.
	var pinSpan telemetry.SpanID
	var pinCtx telemetry.SpanContext
	if s.tm.spans != nil {
		pinSpan, pinCtx = s.tm.spans.StartCtx(s.tm.spans.Context(injTrace, inj), "packet_in", "switch", s.now())
		s.tm.spans.Annotate(pinSpan, int(fid), -1, fmt.Sprintf("buffer=%d", buf))
	}
	// closeSpans ends both open spans on every exit path — a timed-out or
	// failed probe must leave a finished (annotated) tree, not orphans.
	closeSpans := func(ruleID int, detail string) {
		if s.tm.spans == nil {
			return
		}
		end := s.now()
		s.tm.spans.Annotate(pinSpan, -1, ruleID, "")
		s.tm.spans.End(pinSpan, end)
		s.tm.spans.Annotate(inj, -1, ruleID, detail)
		s.tm.spans.End(inj, end)
	}
	probeEvent := func(outcome string, ruleID int, delay time.Duration) {
		if s.tm.events == nil {
			return
		}
		ev := telemetry.NewWideEvent("switch.probe")
		ev.Node = "switch"
		ev.T = s.now()
		ev.Flow = int(fid)
		ev.Rule = ruleID
		ev.Trace = injTrace
		ev.Outcome = outcome
		ev.DelayMs = float64(delay) / float64(time.Millisecond)
		s.tm.events.Emit(ev)
	}
	payload := EncodeTupleContext(t, pinCtx)
	pin := &PacketIn{BufferID: buf, TotalLen: uint16(tupleLen), Reason: ReasonNoMatch, Data: payload}
	if _, err := s.currentConn().Send(pin); err != nil && timeout <= 0 {
		// No-deadline path: a send failure is terminal. Under a deadline
		// the retransmit loop below gets its chance (faults can drop the
		// first send and deliver a retry).
		s.release(buf, false)
		<-ch
		closeSpans(-1, "send_failed")
		probeEvent("send_failed", -1, time.Since(begin))
		return InjectResult{}, err
	}
	var installed, ok bool
	if timeout <= 0 {
		installed, ok = <-ch
	} else {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		attempts := 0
	wait:
		for {
			select {
			case installed, ok = <-ch:
				break wait
			case <-timer.C:
				if attempts >= retries {
					s.abandon(buf)
					s.tm.probeTimeouts.Inc()
					closeSpans(-1, "timeout")
					probeEvent("timeout", -1, time.Since(begin))
					return InjectResult{}, ErrProbeTimeout
				}
				attempts++
				s.tm.probeRetries.Inc()
				// Retransmit with the identical buffer id; the
				// controller's dedup cache answers duplicates without
				// re-running the application.
				_, _ = s.currentConn().Send(pin)
				timer.Reset(timeout)
			}
		}
	}
	if !ok {
		closeSpans(-1, "disconnected")
		probeEvent("disconnected", -1, time.Since(begin))
		return InjectResult{}, ErrDisconnected
	}
	res := InjectResult{Hit: false, RuleID: -1, Delay: time.Since(begin)}
	if installed && known {
		if j, covered := s.rules.HighestCovering(fid); covered {
			res.RuleID = j
		}
	}
	s.tm.misses.Inc()
	s.tm.missDelay.Observe(res.Delay.Seconds())
	closeSpans(res.RuleID, "miss")
	probeEvent("miss", res.RuleID, res.Delay)
	return res, nil
}

// ExpireAll clears the flow table — a measurement helper standing in for
// the passage of every timeout (used to alternate hit/miss samples in the
// latency experiment).
func (s *Switch) ExpireAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for _, id := range s.table.Cached(now) {
		s.table.Remove(id, now)
	}
}

// CachedRules returns the rule IDs presently cached (for tests and
// diagnostics).
func (s *Switch) CachedRules() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Cached(s.now())
}
