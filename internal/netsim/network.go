package netsim

import (
	"fmt"
	"math"
	"sort"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// LatencyModel holds the timing parameters of the simulated fabric. The
// defaults are calibrated so that echo round trips through the standard
// topology reproduce the paper's measurements: hit ≈ N(0.087 ms, 0.021 ms)
// and miss ≈ N(4.070 ms, 1.806 ms) (§VI-A).
type LatencyModel struct {
	// HostLink is the host↔switch propagation delay (seconds, one way).
	HostLink float64
	// SwitchLink is the switch↔switch propagation delay.
	SwitchLink float64
	// HopMean/HopStd describe per-switch forwarding time on a table hit.
	HopMean, HopStd float64
	// SetupMean/SetupStd describe the extra delay of a table miss: the
	// controller round trip, rule computation, and table insertion
	// (t_setup in §III-A).
	SetupMean, SetupStd float64
	// SetupFloor is the minimum setup delay — a controller round trip
	// has a physical lower bound, which is what keeps the paper's 1 ms
	// threshold clean despite the 1.8 ms standard deviation.
	SetupFloor float64
}

// DefaultLatencyModel returns the calibrated parameters.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		HostLink:   5e-6,
		SwitchLink: 10e-6,
		HopMean:    6.5e-6,
		HopStd:     3e-6,
		SetupMean:  3.983e-3,
		SetupStd:   1.8e-3,
		SetupFloor: 1.9e-3,
	}
}

// sample draws a non-negative Gaussian delay.
func sample(rng *stats.RNG, mean, std float64) float64 {
	v := rng.Normal(mean, std)
	if v < mean/10 {
		v = mean / 10 // delays cannot be ≤ 0; clamp far-left tail
	}
	return v
}

// Host is an end host attached to a switch.
type Host struct {
	Name   string
	IP     flows.IPv4
	Switch string
}

// SwitchNode is one SDN switch: a flow table plus its position in the
// topology.
type SwitchNode struct {
	Name  string
	Table *flowtable.Table
	// Reactive marks the switch as running the evaluation's reactive
	// policy. Non-reactive switches forward with pre-installed rules and
	// never consult the controller — the paper's setup, where the
	// wildcard policy lives on the one ingress switch the hosts share
	// (§VI-A) and all other switches carry proactive defaults.
	Reactive bool
}

// ControllerModel is the simulated control plane: the shared reactive
// controller application plus the switch-side delay countermeasure.
type ControllerModel struct {
	// App decides reactive installs, proactive deployment, and carries
	// the controller-side countermeasures (see internal/controller).
	App *controller.Reactive
	// ExtraHitDelay delays every packet, hit or miss, hiding the side
	// channel (countermeasure 1, "adding delays").
	ExtraHitDelay float64
}

// NewControllerModel wraps a policy in the default reactive application —
// the §VI-A setup.
func NewControllerModel(policy *rules.Set, opts controller.Options) ControllerModel {
	return ControllerModel{App: controller.New(policy, opts)}
}

// Network is a simulated SDN fabric.
type Network struct {
	sim      *Sim
	rng      *stats.RNG
	universe *flows.Universe
	ctrl     ControllerModel
	lat      LatencyModel

	switches map[string]*SwitchNode
	hosts    map[string]*Host
	// adj maps a switch to its neighbors with the one-way link delay in
	// seconds; 0 means the latency model's default SwitchLink, so
	// topologies without per-link annotations behave exactly as before.
	adj map[string]map[string]float64
	// PacketIns counts controller consultations (misses).
	PacketIns int

	reg *telemetry.Registry
	tm  netMetrics       // resolved instruments (zero = disabled)
	flt *faults.Stream   // fault injection (nil = clean fabric)
	det *detect.Detector // streaming anomaly detector (nil = off)
}

// SetDetector attaches a streaming timing-anomaly detector to the
// fabric's controller path: every reactive flow-table lookup of a known
// flow becomes one detector observation (in virtual time, with the
// hit/miss outcome), and delivered echo RTTs are attributed to the
// flow's timing sketch. A nil detector detaches — the lookup path then
// pays exactly one nil check, preserving the fast-substrate numbers.
func (n *Network) SetDetector(d *detect.Detector) { n.det = d }

// Detector returns the attached detector (nil when detached).
func (n *Network) Detector() *detect.Detector { return n.det }

// SetFaults attaches a fault-injection stream to the fabric: packets are
// dropped on the link into each switch with LossProb, per-hop forwarding
// picks up jitter/reorder latency, replies can be lost too, and the
// controller path suffers stalls and slowdown. A disabled profile
// restores the clean fabric. All injections run in virtual time and draw
// only from the profile's own seeded streams, so the fabric's RNG
// sequence — and therefore every fault-free simulation — is untouched.
func (n *Network) SetFaults(p faults.Profile) {
	n.flt = p.Stream(0)
	n.flt.SetTelemetry(n.reg, "netsim")
}

// FaultsEnabled reports whether fault injection is active.
func (n *Network) FaultsEnabled() bool { return n.flt != nil }

// netMetrics are the fabric's telemetry instruments.
type netMetrics struct {
	packetIns *telemetry.Counter
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	rtt       *telemetry.Histogram    // delivered echo RTT, seconds
	spans     *telemetry.SpanRecorder // causal spans in virtual time
}

// SetTelemetry attaches the fabric (and every switch's flow table, keyed
// by node name) to a registry. Switches added later are wired on
// AddSwitch. A nil registry disables telemetry.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	n.reg = reg
	n.tm = netMetrics{
		packetIns: reg.Counter("netsim_packet_ins_total"),
		hits:      reg.Counter("netsim_lookups_total", "result", "hit"),
		misses:    reg.Counter("netsim_lookups_total", "result", "miss"),
		rtt:       reg.Histogram("netsim_echo_rtt_seconds", nil),
		spans:     reg.Spans(),
	}
	for name, sw := range n.switches {
		sw.Table.SetTelemetry(reg, name)
	}
	n.flt.SetTelemetry(reg, "netsim") // no-op when faults are off
	n.flt.SetEventLog(reg.Events())   // fault wide events (virtual time is single-threaded)
}

// NewNetwork builds an empty fabric. stepSec scales rule timeouts exactly
// as in flowtable.New.
func NewNetwork(sim *Sim, universe *flows.Universe, ctrl ControllerModel, lat LatencyModel, rng *stats.RNG) *Network {
	return &Network{
		sim:      sim,
		rng:      rng,
		universe: universe,
		ctrl:     ctrl,
		lat:      lat,
		switches: make(map[string]*SwitchNode),
		hosts:    make(map[string]*Host),
		adj:      make(map[string]map[string]float64),
	}
}

// AddSwitch registers a switch with the given flow-table capacity.
func (n *Network) AddSwitch(name string, capacity int, stepSec float64) error {
	if _, ok := n.switches[name]; ok {
		return fmt.Errorf("netsim: duplicate switch %q", name)
	}
	if _, err := n.ctrl.App.ProactivePlan(capacity); err != nil {
		return err // proactive deployment would not fit (§VII-B2)
	}
	tbl, err := flowtable.New(n.ctrl.App.Policy(), capacity, stepSec)
	if err != nil {
		return err
	}
	if n.reg != nil {
		tbl.SetTelemetry(n.reg, name)
	}
	n.switches[name] = &SwitchNode{Name: name, Table: tbl}
	n.adj[name] = make(map[string]float64)
	return nil
}

// Link connects two switches bidirectionally at the latency model's
// default switch↔switch delay.
func (n *Network) Link(a, b string) error { return n.LinkDelay(a, b, 0) }

// LinkDelay connects two switches bidirectionally with an explicit
// one-way propagation delay in seconds; 0 selects the model default.
func (n *Network) LinkDelay(a, b string, delaySec float64) error {
	if _, ok := n.switches[a]; !ok {
		return fmt.Errorf("netsim: unknown switch %q", a)
	}
	if _, ok := n.switches[b]; !ok {
		return fmt.Errorf("netsim: unknown switch %q", b)
	}
	if delaySec < 0 {
		return fmt.Errorf("netsim: negative link delay %v between %q and %q", delaySec, a, b)
	}
	n.adj[a][b] = delaySec
	n.adj[b][a] = delaySec
	return nil
}

// linkDelay returns the one-way delay of the a↔b link, falling back to
// the model default for unannotated links.
func (n *Network) linkDelay(a, b string) float64 {
	if d := n.adj[a][b]; d > 0 {
		return d
	}
	return n.lat.SwitchLink
}

// AddHost attaches a host to a switch.
func (n *Network) AddHost(name string, ip flows.IPv4, sw string) error {
	if _, ok := n.switches[sw]; !ok {
		return fmt.Errorf("netsim: unknown switch %q", sw)
	}
	if _, ok := n.hosts[name]; ok {
		return fmt.Errorf("netsim: duplicate host %q", name)
	}
	n.hosts[name] = &Host{Name: name, IP: ip, Switch: sw}
	return nil
}

// Switch returns a switch by name (nil if absent).
func (n *Network) Switch(name string) *SwitchNode { return n.switches[name] }

// SetReactive marks a switch as running the reactive policy.
func (n *Network) SetReactive(name string, reactive bool) error {
	sw, ok := n.switches[name]
	if !ok {
		return fmt.Errorf("netsim: unknown switch %q", name)
	}
	sw.Reactive = reactive
	return nil
}

// Path returns the switch names on a shortest path between two switches,
// inclusive, via breadth-first search.
func (n *Network) Path(from, to string) ([]string, error) {
	if _, ok := n.switches[from]; !ok {
		return nil, fmt.Errorf("netsim: unknown switch %q", from)
	}
	if from == to {
		return []string{from}, nil
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		neighbors := make([]string, 0, len(n.adj[cur]))
		for next := range n.adj[cur] {
			neighbors = append(neighbors, next)
		}
		// Deterministic exploration: map iteration order would otherwise
		// pick different equal-length routes run to run (and even packet
		// to packet), which breaks both reproducibility and the per-path
		// rule-install locality the attack relies on.
		sort.Strings(neighbors)
		for _, next := range neighbors {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == to {
				var path []string
				for at := to; at != from; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return append([]string{from}, path...), nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fmt.Errorf("netsim: no path %s → %s", from, to)
}

// EchoResult is the outcome of one simulated echo exchange.
type EchoResult struct {
	// SentAt is the virtual send time.
	SentAt float64
	// RTT is the echo round-trip time in seconds; NaN until delivery.
	RTT float64
	// Missed reports whether any switch on the forward path consulted
	// the controller.
	Missed bool
	// Delivered is set when the reply arrives.
	Delivered bool
	// Trace is the causal-span correlation ID of this exchange (0 when
	// span recording is off): every hop, packet-in, controller decision
	// and flow-mod of the echo shares it.
	Trace int64
}

// SendEcho schedules an ICMP-style echo from srcHost to dstHost at the
// given virtual time and returns a result that fills in once the
// simulation delivers the reply. The forward path performs reactive flow
// lookups at every switch; the reply rides the paper's pre-installed
// echo-reply rule and therefore never misses.
func (n *Network) SendEcho(srcHost, dstHost string, at float64) (*EchoResult, error) {
	src, ok := n.hosts[srcHost]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown host %q", srcHost)
	}
	dst, ok := n.hosts[dstHost]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown host %q", dstHost)
	}
	path, err := n.Path(src.Switch, dst.Switch)
	if err != nil {
		return nil, err
	}
	tuple := flows.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: flows.ProtoICMP}
	fid, known := n.universe.Lookup(tuple)

	res := &EchoResult{SentAt: at, RTT: math.NaN()}
	var rootCtx telemetry.SpanContext
	if n.tm.spans != nil {
		res.Trace = n.tm.spans.NewTrace()
		var root telemetry.SpanID
		root, rootCtx = n.tm.spans.StartCtx(n.tm.spans.Context(res.Trace, 0), "echo", src.Switch, at)
		n.tm.spans.Annotate(root, int(fid), -1, srcHost+"→"+dstHost)
	}
	n.sim.At(at+n.lat.HostLink, func() {
		n.forward(res, path, 0, fid, known, at, rootCtx)
	})
	return res, nil
}

// forward processes the packet at path[idx] and passes it on. sc is the
// echo root's SpanContext — the same carrier the TCP path marshals onto
// the wire — so every hop (and, on a miss, the packet-in →
// controller-decision → flow-mod chain) hangs beneath the root in
// virtual time.
func (n *Network) forward(res *EchoResult, path []string, idx int, fid flows.ID, known bool, sentAt float64, sc telemetry.SpanContext) {
	sw := n.switches[path[idx]]
	now := n.sim.Now()
	delay := sample(n.rng, n.lat.HopMean, n.lat.HopStd) + n.ctrl.ExtraHitDelay
	hop, hopCtx := n.tm.spans.StartCtx(sc, "hop", sw.Name, now)
	n.tm.spans.Annotate(hop, int(fid), -1, "")

	if n.flt != nil {
		// Loss on the link into this switch: the packet vanishes before
		// the lookup, so a dropped probe leaves no flow-table side effect
		// at the switch it never reached.
		if n.flt.Drop() {
			n.tm.spans.Annotate(hop, -1, -1, "dropped")
			n.tm.spans.End(hop, now)
			n.tm.spans.End(sc.Parent, now)
			return
		}
		// Delivered packets pick up jitter (and, when selected, the
		// reorder penalty that lets later traffic overtake this packet).
		delay += (n.flt.JitterMs() + n.flt.ReorderMs()) / 1e3
	}

	if sw.Reactive && !n.ctrl.App.Options().Proactive {
		hit := false
		if known {
			_, hit = sw.Table.Lookup(fid, now)
			// The defender watches the reactive lookup point: one
			// observation per lookup, in virtual time, RTT unknown here
			// (attributed later at echo delivery).
			n.det.Observe(int(fid), now, math.NaN(), hit)
		}
		if hit {
			n.tm.hits.Inc()
			n.tm.spans.Annotate(hop, -1, -1, "hit")
		}
		if !hit {
			// Table miss: consult the controller (steps b–e of Figure 1).
			res.Missed = true
			n.PacketIns++
			n.tm.misses.Inc()
			n.tm.packetIns.Inc()
			pin, pinCtx := n.tm.spans.StartCtx(hopCtx, "packet_in", sw.Name, now)
			n.tm.spans.Annotate(pin, int(fid), -1, "")
			if n.det != nil && n.tm.spans != nil {
				// Tag the forensic span with the source's anomaly score
				// once it is in flagging territory.
				if asc := n.det.Score(int(fid)); asc >= 1 {
					n.tm.spans.Annotate(pin, -1, -1, fmt.Sprintf("anomaly=%.2f", asc))
				}
			}
			setup := sample(n.rng, n.lat.SetupMean, n.lat.SetupStd)
			if setup < n.lat.SetupFloor {
				setup = n.lat.SetupFloor
			}
			dec, decCtx := n.tm.spans.StartCtx(pinCtx, "controller.decision", "controller", now)
			var decision controller.Decision
			if known {
				decision = n.ctrl.App.OnPacketIn(fid)
			} else {
				// Unregistered flows reach the controller too but match
				// no policy rule; only the processing delay applies.
				decision = controller.Decision{Delay: n.ctrl.App.Options().ProcessingDelay}
			}
			decDelay := decision.Delay.Seconds()
			if n.flt != nil {
				// Controller faults: occasional stalls plus a uniform
				// slowdown factor on the decision latency.
				setup += n.flt.StallMs() / 1e3
				decDelay = n.flt.SlowMs(decDelay*1e3) / 1e3
			}
			decEnd := now + setup + decDelay
			delay += setup + decDelay
			n.tm.spans.Annotate(dec, int(fid), -1, "")
			if decision.Install {
				sw.Table.Install(decision.RuleID, now)
				n.tm.spans.Annotate(dec, -1, decision.RuleID, "")
				fm, _ := n.tm.spans.StartCtx(decCtx, "flow_mod", sw.Name, decEnd)
				n.tm.spans.Annotate(fm, int(fid), decision.RuleID, "install")
				n.tm.spans.End(fm, decEnd)
			}
			n.tm.spans.End(dec, decEnd)
			n.tm.spans.End(pin, decEnd)
		}
	}
	n.tm.spans.End(hop, now+delay)

	if idx+1 < len(path) {
		n.sim.After(delay+n.linkDelay(path[idx], path[idx+1]), func() {
			n.forward(res, path, idx+1, fid, known, sentAt, sc)
		})
		return
	}
	// Last switch → destination host → reply. The reply traverses the
	// same path under the pre-installed reply rule: per-hop forwarding
	// only.
	replyDelay := delay + n.lat.HostLink + n.lat.HostLink // to dst host and back into the fabric
	for i := 0; i < len(path); i++ {
		replyDelay += sample(n.rng, n.lat.HopMean, n.lat.HopStd) + n.ctrl.ExtraHitDelay
		if i > 0 {
			replyDelay += n.linkDelay(path[i-1], path[i])
		}
	}
	replyDelay += n.lat.HostLink // back to the source host
	if n.flt != nil {
		if n.flt.Drop() {
			// The reply is lost on the way back: the echo was processed
			// (rules installed and all) but the sender observes nothing.
			n.tm.spans.Annotate(sc.Parent, -1, -1, "reply dropped")
			n.tm.spans.End(sc.Parent, n.sim.Now())
			return
		}
		replyDelay += n.flt.JitterMs() / 1e3
	}
	n.sim.After(replyDelay, func() {
		res.RTT = n.sim.Now() - res.SentAt
		res.Delivered = true
		if known {
			n.det.ObserveRTT(int(fid), res.RTT*1e3)
		}
		n.tm.rtt.Observe(res.RTT)
		n.tm.spans.End(sc.Parent, n.sim.Now())
	})
}
