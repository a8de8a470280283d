package openflow

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

// ControllerOptions tune the reactive controller.
type ControllerOptions struct {
	// ProcessingDelay is added before answering each PACKET_IN,
	// emulating controller compute time (Ryu's processing in the paper's
	// testbed) and doubling as the §VII-B "adding delays" countermeasure.
	ProcessingDelay time.Duration
	// StepSeconds converts rule timeouts (in model steps) to the seconds
	// carried in FLOW_MOD. Defaults to 1s per step.
	StepSeconds float64
	// Faults injects controller-side chaos: stalls and slowdown on the
	// decision path (per the profile's StallProb/StallMs/SlowFactor),
	// plus loss/jitter/resets on every accepted switch connection when
	// the controller listens. Zero profile = clean controller.
	Faults faults.Profile
}

// Controller is a reactive OpenFlow controller: on PACKET_IN it installs
// the highest-priority rule covering the packet's flow, then releases the
// packet — the Ryu application of §VI-A. Policy decisions are delegated
// to the shared controller application (internal/controller).
type Controller struct {
	app      *controller.Reactive
	universe *flows.Universe
	opts     ControllerOptions
	start    time.Time // span clock epoch

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	reg *telemetry.Registry
	tm  ctlMetrics // resolved instruments (zero = disabled)

	det *detect.Detector // streaming anomaly detector (nil = off)
	flt *faults.Stream   // controller-side stall/slowdown injection (nil = clean)

	connMu sync.Mutex
	conns  map[*Conn]struct{}
}

// ctlMetrics are the TCP controller's telemetry instruments.
type ctlMetrics struct {
	connections   *telemetry.Counter
	flowRemovals  *telemetry.Counter
	packetInDupes *telemetry.Counter      // retransmitted PACKET_INs answered from the dedup cache
	serviceTime   *telemetry.Histogram    // packet-in → flow-mod/packet-out, seconds
	spans         *telemetry.SpanRecorder // wall-clock causal spans
	events        *telemetry.EventLog     // wide events (decisions, dupes, flow removals)
}

// SetTelemetry attaches the controller (its shared application plus every
// future switch connection) to a registry. Call before Listen/ServeConn.
// A nil registry disables telemetry.
func (c *Controller) SetTelemetry(reg *telemetry.Registry) {
	c.reg = reg
	if c.app != nil {
		c.app.SetTelemetry(reg)
	}
	c.tm = ctlMetrics{
		connections:   reg.Counter("controller_connections_total"),
		flowRemovals:  reg.Counter("controller_flow_removals_total"),
		packetInDupes: reg.Counter("controller_packet_in_dupes_total"),
		serviceTime:   reg.Histogram("controller_packet_in_service_seconds", nil),
		spans:         reg.Spans(),
		events:        reg.Events(),
	}
	c.flt.SetTelemetry(reg, "controller")
	c.flt.SetEventLog(reg.Events())
}

// NewController builds a controller over the shared policy.
func NewController(rs *rules.Set, universe *flows.Universe, opts ControllerOptions) *Controller {
	if opts.StepSeconds <= 0 {
		opts.StepSeconds = 1
	}
	var app *controller.Reactive
	if rs != nil {
		app = controller.New(rs, controller.Options{ProcessingDelay: opts.ProcessingDelay})
	}
	return &Controller{
		app: app, universe: universe, opts: opts, start: time.Now(),
		conns: make(map[*Conn]struct{}),
		flt:   opts.Faults.Stream(-1), // controller substream; conns use 0,1,...
	}
}

// now returns seconds since the controller's span epoch.
func (c *Controller) now() float64 { return time.Since(c.start).Seconds() }

// SetDetector attaches a streaming timing-anomaly detector: every
// PACKET_IN of a known flow becomes one detector observation, stamped
// with the controller's span clock. The TCP observation point sees
// misses exclusively (hits never leave the switch), so configs for this
// substrate must keep the miss-skew scorer disabled (the default). Call
// before Listen/ServeConn; nil detaches.
func (c *Controller) SetDetector(d *detect.Detector) { c.det = d }

// Detector returns the attached detector (nil when detached).
func (c *Controller) Detector() *detect.Detector { return c.det }

// PacketIns returns the number of PACKET_IN messages processed.
func (c *Controller) PacketIns() int64 {
	if c.app == nil {
		return 0
	}
	return c.app.Snapshot().PacketIns
}

// Listen starts accepting switch connections on addr ("127.0.0.1:0" for an
// ephemeral test port) and returns the bound address.
func (c *Controller) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("controller listen: %w", err)
	}
	// Fault-wrap the listener so every accepted switch connection carries
	// its own seeded loss/jitter/reset stream (no-op for a clean profile).
	c.ln = faults.WrapListener(ln, c.opts.Faults)
	c.wg.Add(1)
	go c.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, closes every switch connection, and waits for
// connection handlers to finish.
func (c *Controller) Close() error {
	c.closed.Store(true)
	var err error
	if c.ln != nil {
		err = c.ln.Close()
	}
	c.connMu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.connMu.Unlock()
	c.wg.Wait()
	return err
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.ServeConn(NewConn(conn))
		}()
	}
}

// ServeConn drives one switch connection to completion (used directly in
// tests with a pipe transport).
func (c *Controller) ServeConn(conn *Conn) {
	if c.reg != nil {
		conn.SetTelemetry(c.reg, "controller")
	}
	c.tm.connections.Inc()
	c.connMu.Lock()
	c.conns[conn] = struct{}{}
	c.connMu.Unlock()
	defer func() {
		conn.Close()
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
	}()
	if err := conn.Handshake(); err != nil {
		return
	}
	// Solicit the datapath features, as a real controller does.
	if _, err := conn.Send(&FeaturesRequest{}); err != nil {
		return
	}
	// dedup remembers recently answered PACKET_IN buffer ids so a
	// retransmitted probe (the switch's InjectTimeout resend after a lost
	// message) is answered from cache instead of re-running the
	// application — at most one rule install per buffered packet.
	dedup := newDedupCache(256)
	for {
		msg, h, err := conn.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *PacketIn:
			if reply, dup := dedup.lookup(m.BufferID); dup {
				c.tm.packetInDupes.Inc()
				if reply != nil {
					if _, err := conn.Send(reply); err != nil {
						return
					}
				}
				continue
			}
			begin := time.Now()
			reply, err := c.handlePacketIn(conn, m)
			if err != nil {
				return
			}
			dedup.store(m.BufferID, reply)
			c.tm.serviceTime.Observe(time.Since(begin).Seconds())
		case *EchoRequest:
			if err := conn.SendXID(&EchoReply{Data: m.Data}, h.XID); err != nil {
				return
			}
		case *FlowRemoved:
			c.tm.flowRemovals.Inc()
			c.flowRemovedEvent(m)
		case *FeaturesReply, *Hello, *EchoReply, *ErrorMsg:
			// informational
		}
	}
}

// flowRemovedEvent emits one wide event per FLOW_REMOVED notification;
// the outcome says whether the switch evicted the rule or it timed out.
func (c *Controller) flowRemovedEvent(m *FlowRemoved) {
	if c.tm.events == nil {
		return
	}
	ev := telemetry.NewWideEvent("controller.flow_removed")
	ev.Node = "controller"
	ev.T = c.now()
	ev.Rule = int(m.Cookie)
	ev.Outcome = "expire"
	if m.Reason == RemovedDelete {
		ev.Outcome = "evict"
	}
	c.tm.events.Emit(ev)
}

// dedupCache is a bounded FIFO memory of answered PACKET_IN buffer ids
// and the replies they got, serving controller-side retransmit dedup.
// Buffer ids from one switch are monotonically increasing and never
// reused, so a hit can only be a genuine retransmission.
type dedupCache struct {
	cap   int
	order []uint32
	seen  map[uint32]Message
}

func newDedupCache(cap int) *dedupCache {
	return &dedupCache{cap: cap, seen: make(map[uint32]Message, cap)}
}

func (d *dedupCache) lookup(buf uint32) (Message, bool) {
	m, ok := d.seen[buf]
	return m, ok
}

func (d *dedupCache) store(buf uint32, reply Message) {
	if _, ok := d.seen[buf]; ok {
		return
	}
	if len(d.order) >= d.cap {
		oldest := d.order[0]
		d.order = d.order[1:]
		delete(d.seen, oldest)
	}
	d.order = append(d.order, buf)
	d.seen[buf] = reply
}

// handlePacketIn implements the reactive rule setup of Figure 1 (steps
// b–e): ask the controller application for a decision, install the chosen
// rule with its timeouts, and release the buffered packet. It returns
// the reply it sent so ServeConn can answer retransmissions from cache.
func (c *Controller) handlePacketIn(conn *Conn, m *PacketIn) (Message, error) {
	tuple, sc, err := DecodeTupleContext(m.Data)
	if err != nil {
		return nil, conn.SendXID(&ErrorMsg{ErrType: 1, Code: 0}, 0)
	}
	// Injected controller chaos: an occasional hard stall before any
	// processing, modelling a busy or GC-pausing control plane.
	if st := c.flt.StallMs(); st > 0 {
		time.Sleep(time.Duration(st * float64(time.Millisecond)))
	}
	fid, known := c.universe.Lookup(tuple)
	if known {
		// Every PACKET_IN is by definition a table miss; RTT is the
		// switch's side of the channel and unknown here.
		c.det.Observe(int(fid), c.now(), math.NaN(), false)
	}
	// When the PACKET_IN carries the switch's SpanContext side-band, the
	// decision span adopts its trace and parents itself under the
	// switch-side packet_in span: the two processes' streams concatenate
	// into one joined tree per probe. Legacy payloads without the
	// side-band fall back to a fresh root correlated by buffer id.
	var dec telemetry.SpanID
	var decTrace int64
	if c.tm.spans != nil {
		if sc.Valid() {
			decTrace = sc.Trace
			dec = c.tm.spans.Start(sc.Trace, sc.Parent, "controller.decision", "controller", c.now())
		} else {
			decTrace = c.tm.spans.NewTrace()
			dec = c.tm.spans.Start(decTrace, 0, "controller.decision", "controller", c.now())
		}
		c.tm.spans.Annotate(dec, int(fid), -1, fmt.Sprintf("buffer=%d", m.BufferID))
		if c.det != nil && known {
			if asc := c.det.Score(int(fid)); asc >= 1 {
				c.tm.spans.Annotate(dec, -1, -1, fmt.Sprintf("anomaly=%.2f", asc))
			}
		}
	}
	if known {
		decision := c.app.OnPacketIn(fid)
		delay := decision.Delay
		if c.flt != nil {
			// Slowdown scales the decision latency (SlowFactor × delay).
			delay = time.Duration(c.flt.SlowMs(float64(delay)/float64(time.Millisecond)) * float64(time.Millisecond))
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if decision.Install {
			r := c.app.Policy().Rule(decision.RuleID)
			fm := &FlowMod{
				Match:    MatchForTuple(tuple),
				Cookie:   uint64(decision.RuleID),
				Command:  FlowModAdd,
				Priority: uint16(r.Priority),
				BufferID: m.BufferID,
			}
			secs := timeoutSeconds(r.Timeout, c.opts.StepSeconds)
			if r.Kind == rules.HardTimeout {
				fm.HardTimeout = secs
			} else {
				fm.IdleTimeout = secs
			}
			// The spans are recorded before the send, so a switch that
			// has seen the FLOW_MOD never observes an unfinished chain.
			if c.tm.spans != nil {
				end := c.now()
				fms := c.tm.spans.Start(decTrace, dec, "flow_mod", "controller", end)
				c.tm.spans.Annotate(fms, int(fid), decision.RuleID, "install")
				c.tm.spans.End(fms, end)
				c.tm.spans.Annotate(dec, -1, decision.RuleID, "")
				c.tm.spans.End(dec, end)
			}
			// Installing with the buffer id releases the packet at the
			// switch; no separate PACKET_OUT is needed.
			_, err := conn.Send(fm)
			c.decisionEvent(fid, decision.RuleID, decTrace, "install", delay)
			return fm, err
		}
	} else if c.opts.ProcessingDelay > 0 {
		time.Sleep(c.opts.ProcessingDelay)
	}
	// No covering rule: flood via the pre-installed default (release only).
	pout := &PacketOut{BufferID: m.BufferID, InPort: m.InPort, Data: m.Data}
	if c.tm.spans != nil {
		end := c.now()
		po := c.tm.spans.Start(decTrace, dec, "packet_out", "controller", end)
		c.tm.spans.Annotate(po, int(fid), -1, "release")
		c.tm.spans.End(po, end)
		c.tm.spans.End(dec, end)
	}
	_, err = conn.Send(pout)
	c.decisionEvent(fid, -1, decTrace, "release", 0)
	return pout, err
}

// decisionEvent emits one wide event per controller decision.
func (c *Controller) decisionEvent(fid flows.ID, ruleID int, trace int64, outcome string, delay time.Duration) {
	if c.tm.events == nil {
		return
	}
	ev := telemetry.NewWideEvent("controller.decision")
	ev.Node = "controller"
	ev.T = c.now()
	ev.Flow = int(fid)
	ev.Rule = ruleID
	ev.Trace = trace
	ev.Outcome = outcome
	ev.DelayMs = float64(delay) / float64(time.Millisecond)
	c.tm.events.Emit(ev)
}

func timeoutSeconds(steps int, stepSeconds float64) uint16 {
	s := float64(steps) * stepSeconds
	n := int(s)
	if float64(n) < s {
		n++
	}
	if n < 1 {
		n = 1
	}
	if n > 0xFFFF {
		n = 0xFFFF
	}
	return uint16(n)
}

// ErrNoListener is returned by Addr when the controller is not listening.
var ErrNoListener = errors.New("openflow: controller is not listening")

// Addr returns the bound listen address.
func (c *Controller) Addr() (string, error) {
	if c.ln == nil {
		return "", ErrNoListener
	}
	return c.ln.Addr().String(), nil
}
