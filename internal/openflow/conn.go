package openflow

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flowrecon/internal/telemetry"
)

// DefaultHandshakeTimeout bounds the version handshake: a dead or silent
// peer must not hang a daemon forever (the read deadline is applied when
// the transport supports one, i.e. any net.Conn).
const DefaultHandshakeTimeout = 10 * time.Second

// DefaultDialTimeout bounds a switch's TCP connect to its controller
// (cmd/ofswitch dials with it): an unbounded connect to a blackholed
// address would hang the caller forever.
const DefaultDialTimeout = 10 * time.Second

// Conn frames OpenFlow messages over a byte stream and performs the
// version handshake. It is safe for one concurrent reader and multiple
// concurrent writers.
type Conn struct {
	rw      io.ReadWriteCloser
	writeMu sync.Mutex
	nextXID atomic.Uint32
	tm      connMetrics // resolved telemetry instruments (zero = disabled)
}

// connMetrics hold per-message-type counters plus the handshake
// histogram. Indexing is by MsgType (all values < 16); unknown types fall
// through to nil (no-op) counters.
type connMetrics struct {
	txMsgs            [16]*telemetry.Counter
	rxMsgs            [16]*telemetry.Counter
	txBytes           [16]*telemetry.Counter
	rxBytes           [16]*telemetry.Counter
	handshakeSeconds  *telemetry.Histogram
	handshakeFailures *telemetry.Counter
}

// knownTypes enumerates the message types with dedicated counters.
var knownTypes = []MsgType{
	TypeHello, TypeError, TypeEchoRequest, TypeEchoReply,
	TypeFeaturesRequest, TypeFeaturesReply, TypePacketIn,
	TypeFlowRemoved, TypePacketOut, TypeFlowMod,
}

// SetTelemetry attaches the connection to a registry, resolving one
// counter series per message type and direction plus the handshake
// round-trip histogram. role ("switch"/"controller"), when non-empty,
// becomes a label on every series. Call before the connection is used
// concurrently. A nil registry disables telemetry.
func (c *Conn) SetTelemetry(reg *telemetry.Registry, role string) {
	var tm connMetrics
	for _, t := range knownTypes {
		labels := []string{"type", t.String()}
		if role != "" {
			labels = append(labels, "role", role)
		}
		tm.txMsgs[t] = reg.Counter("openflow_tx_messages_total", labels...)
		tm.rxMsgs[t] = reg.Counter("openflow_rx_messages_total", labels...)
		tm.txBytes[t] = reg.Counter("openflow_tx_bytes_total", labels...)
		tm.rxBytes[t] = reg.Counter("openflow_rx_bytes_total", labels...)
	}
	var roleLabels []string
	if role != "" {
		roleLabels = []string{"role", role}
	}
	tm.handshakeSeconds = reg.Histogram("openflow_handshake_seconds", nil, roleLabels...)
	tm.handshakeFailures = reg.Counter("openflow_handshake_failures_total", roleLabels...)
	c.tm = tm
}

// NewConn wraps an established transport (normally a *net.TCPConn).
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw}
}

// DialTimeout connects to an OpenFlow endpoint over TCP, failing after
// timeout (0 = no limit).
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("openflow dial: %w", err)
	}
	return NewConn(c), nil
}

// DialContext connects to an OpenFlow endpoint over TCP under a context
// (cancellation and deadline both apply to the connect).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("openflow dial: %w", err)
	}
	return NewConn(c), nil
}

// Close closes the transport.
func (c *Conn) Close() error { return c.rw.Close() }

// XID mints a fresh transaction id.
func (c *Conn) XID() uint32 { return c.nextXID.Add(1) }

// Send writes one message with a fresh transaction id, returning the id.
func (c *Conn) Send(msg Message) (uint32, error) {
	xid := c.XID()
	return xid, c.SendXID(msg, xid)
}

// SendXID writes one message with the given transaction id.
func (c *Conn) SendXID(msg Message, xid uint32) error {
	buf, err := Encode(msg, xid)
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if _, err := c.rw.Write(buf); err != nil {
		return fmt.Errorf("openflow write: %w", err)
	}
	if t := msg.Type(); int(t) < len(c.tm.txMsgs) {
		c.tm.txMsgs[t].Inc()
		c.tm.txBytes[t].Add(int64(len(buf)))
	}
	return nil
}

// Recv reads the next message.
func (c *Conn) Recv() (Message, Header, error) {
	head := make([]byte, HeaderLen)
	if _, err := io.ReadFull(c.rw, head); err != nil {
		return nil, Header{}, fmt.Errorf("openflow read header: %w", err)
	}
	h, err := parseHeader(head)
	if err != nil {
		return nil, Header{}, err
	}
	full := make([]byte, h.Length)
	copy(full, head)
	if _, err := io.ReadFull(c.rw, full[HeaderLen:]); err != nil {
		return nil, Header{}, fmt.Errorf("openflow read body: %w", err)
	}
	if int(h.Type) < len(c.tm.rxMsgs) {
		c.tm.rxMsgs[h.Type].Inc()
		c.tm.rxBytes[h.Type].Add(int64(h.Length))
	}
	return Decode(full)
}

// deadlineTransport is the optional deadline surface of the underlying
// transport (any net.Conn, including net.Pipe, implements it).
type deadlineTransport interface {
	SetReadDeadline(time.Time) error
}

// Handshake exchanges HELLO messages (both sides send; both sides expect
// one) with the default handshake timeout. Either endpoint may call it
// first.
func (c *Conn) Handshake() error {
	return c.HandshakeTimeout(DefaultHandshakeTimeout)
}

// HandshakeTimeout is Handshake with an explicit bound on the peer's
// HELLO (0 = wait forever). The read deadline applies only when the
// transport supports one; it is cleared before returning. Failures are
// counted in the openflow_handshake_failures_total series.
func (c *Conn) HandshakeTimeout(timeout time.Duration) error {
	begin := time.Now()
	err := c.handshake(timeout)
	if err != nil {
		c.tm.handshakeFailures.Inc()
		return err
	}
	c.tm.handshakeSeconds.Observe(time.Since(begin).Seconds())
	return nil
}

func (c *Conn) handshake(timeout time.Duration) error {
	if _, err := c.Send(&Hello{}); err != nil {
		return err
	}
	if timeout > 0 {
		if dt, ok := c.rw.(deadlineTransport); ok {
			if err := dt.SetReadDeadline(time.Now().Add(timeout)); err == nil {
				defer dt.SetReadDeadline(time.Time{})
			}
		}
	}
	msg, _, err := c.Recv()
	if err != nil {
		return fmt.Errorf("openflow handshake: %w", err)
	}
	if msg.Type() != TypeHello {
		return fmt.Errorf("openflow handshake: expected HELLO, got %s", msg.Type())
	}
	return nil
}
