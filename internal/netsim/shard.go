package netsim

// The fleet engine: the virtual-time fabric, from the paper's 16-switch
// backbone up to 1k–10k switch topologies. It compiles the fabric into
// dense arrays (interned routes, integer switch IDs, per-link delays)
// and partitions the switches across shards, each with its own pooled
// event heap. Shards execute in parallel inside conservative-lookahead
// windows (see barrier.go) and exchange cross-shard packets through
// outboxes merged at window barriers.
//
// # Determinism at any shard count
//
// The engine promises byte-identical results at 1, 2, or 8 shards —
// recordings, table stats, detector verdicts, everything. The execution
// ORDER of events does differ across shard counts (that is the point of
// sharding), so the promise holds because no shared state is
// order-dependent:
//
//   - Every packet carries its own delay RNG (stats.SmallRNG seeded from
//     (fleet seed, packet ID)) and its own fault stream
//     (faults.PacketStream) — the PR 3 trick of pre-derived per-unit
//     seeds, pushed down from per-trial to per-packet granularity.
//   - Per-shard heaps order events by (time, packet ID). A packet has at
//     most one in-flight event, so the key is a strict total order and
//     heap contents are insertion-order-independent.
//   - Flow tables are per-switch and a switch belongs to exactly one
//     shard; switch-local sequences are fixed by the heap order.
//   - The shared controller's decision (rules.Set.HighestCovering) is a
//     pure function; its stats are commutative counters.
//   - The detector observes a source only at its ingress switch (hop 0),
//     so each source's observation stream is emitted by one shard in
//     virtual-time order; cross-source interleaving varies but per-source
//     state never does.
import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// FleetConfig assembles a sharded fabric.
type FleetConfig struct {
	// Topo is the switch fabric; generated topologies (FatTree,
	// LeafSpine) carry per-link delays and edge annotations.
	Topo Topology
	// Capacity and StepSec size the flow tables of reactive switches;
	// StepSec scales rule timeouts exactly as in flowtable.New.
	Capacity int
	StepSec  float64
	// Ctrl is the shared control plane.
	Ctrl ControllerModel
	// Lat is the timing model (DefaultLatencyModel when zero).
	Lat LatencyModel
	// Universe resolves host 5-tuples to flow IDs.
	Universe *flows.Universe
	// Shards is the partition width (default 1; clamped to the switch
	// count). Results are byte-identical at any value.
	Shards int
	// Workers bounds the worker pool (default min(Shards, GOMAXPROCS)).
	// Workers=1 drains shards sequentially on the caller's goroutine
	// with no synchronization at all.
	Workers int
	// Seed roots the per-packet delay RNG streams.
	Seed int64
	// Faults is the fault profile; every packet derives its own stream
	// from it, keeping injection schedules shard-count-invariant.
	Faults faults.Profile
	// Detector observes reactive ingress lookups (nil = off).
	Detector *detect.Detector
	// Registry receives batched fleet telemetry (nil = off).
	Registry *telemetry.Registry
}

// replyHop marks a reply-delivery event; forward hops are ≥ 0.
const replyHop = -1

// fleetMsg is one scheduled packet event: 16 bytes, no closure. Heap
// order is (at, pkt) — a strict total order because a packet has at
// most one in-flight event.
type fleetMsg struct {
	at  float64
	pkt int32
	hop int16
}

// fleetPacket is the full per-packet state, held in one flat slice
// indexed by packet ID (the injection order, a deterministic program
// order). The embedded RNG and fault stream are what make processing
// order-free: every draw the packet will ever make is a pure function of
// its ID.
type fleetPacket struct {
	rng       stats.SmallRNG
	flt       faults.PacketStream
	fid       flows.ID
	route     int32
	sentAt    float64
	rtt       float64
	known     bool
	missed    bool
	delivered bool
}

// fleetShard is one shard: a pooled 4-ary event heap over its switch
// partition, per-destination outboxes, and local stat deltas flushed in
// batch (per-event atomic updates from many shards are pure contention).
type fleetShard struct {
	id   int
	heap []fleetMsg   // 4-ary min-heap by (at, pkt); backing array is the pool
	out  [][]fleetMsg // outbox per destination shard, merged at barriers

	switches []int32 // owned reactive switches, for occupancy batching

	// Stat deltas since the last flush, zeroed by flushTelemetry.
	events, hits, misses, packetIns, drops, delivered, crossings int64

	// lastAt is the timestamp of the newest event this shard has
	// processed — the frontier fallback when a window has no finite
	// boundary (single-shard fleets have infinite lookahead).
	lastAt float64

	occ *telemetry.Gauge // netsim_shard_occupancy{shard=...}
}

func msgLess(a, b fleetMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.pkt < b.pkt
}

// push inserts a message into the shard's 4-ary heap.
func (sh *fleetShard) push(m fleetMsg) {
	sh.heap = append(sh.heap, m)
	c := len(sh.heap) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !msgLess(sh.heap[c], sh.heap[p]) {
			break
		}
		sh.heap[c], sh.heap[p] = sh.heap[p], sh.heap[c]
		c = p
	}
}

// pop removes and returns the heap minimum.
func (sh *fleetShard) pop() fleetMsg {
	top := sh.heap[0]
	last := len(sh.heap) - 1
	sh.heap[0] = sh.heap[last]
	sh.heap = sh.heap[:last]
	p := 0
	for {
		first := 4*p + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if msgLess(sh.heap[c], sh.heap[min]) {
				min = c
			}
		}
		if !msgLess(sh.heap[min], sh.heap[p]) {
			break
		}
		sh.heap[p], sh.heap[min] = sh.heap[min], sh.heap[p]
		p = min
	}
	return top
}

// fleetEdge is one adjacency entry of the compiled topology.
type fleetEdge struct {
	to    int32
	delay float64 // effective one-way delay (defaults resolved)
}

// fleetHost is a compiled host.
type fleetHost struct {
	ip flows.IPv4
	sw int32
}

// fleetMetrics are the fleet's registry instruments (zero = disabled).
type fleetMetrics struct {
	events    *telemetry.Counter
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	packetIns *telemetry.Counter
	drops     *telemetry.Counter
	windows   *telemetry.Counter
	crossings *telemetry.Counter
	rtt       *telemetry.Histogram
	shards    *telemetry.Gauge
	pending   *telemetry.Gauge
	clock     *telemetry.Gauge
}

// Fleet is a sharded virtual-time SDN fabric. Build one with NewFleet,
// attach hosts and reactive switches, then drive it with SendEcho +
// RunUntil/Run from a single goroutine; the engine parallelizes
// internally. Call Close when done to stop the worker pool.
type Fleet struct {
	cfg       FleetConfig
	lat       LatencyModel
	proactive bool
	extraHit  float64

	names    []string
	index    map[string]int32
	owner    []int32
	reactive []bool
	tables   []*flowtable.Table // non-nil only for reactive switches
	adj      [][]fleetEdge      // neighbor lists sorted by switch ID

	hosts map[string]fleetHost

	// Interned routes: routeOf[(src<<32)|dst] indexes routeOff/routeLen
	// into the flat path arenas. pathLink[i] is the delay of the link
	// INTO hop i (0 for the ingress hop).
	routeOf  map[int64]int32
	routeOff []int32
	routeLen []int32
	pathSw   []int32
	pathLink []float64

	shards    []*fleetShard
	lookahead float64
	workers   int
	pool      *fleetPool

	pkts []fleetPacket
	now  float64

	det    *detect.Detector
	flt    faults.Profile
	fltOn  bool
	seed   int64
	frozen bool // topology compiled (first run); no more switch/host edits

	reg *telemetry.Registry
	tm  fleetMetrics
}

// NewFleet compiles a topology into a sharded fabric.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Ctrl.App == nil {
		return nil, fmt.Errorf("netsim: fleet needs a controller")
	}
	if cfg.Universe == nil {
		return nil, fmt.Errorf("netsim: fleet needs a flow universe")
	}
	if len(cfg.Topo.Switches) == 0 {
		return nil, fmt.Errorf("netsim: fleet topology has no switches")
	}
	if cfg.Lat == (LatencyModel{}) {
		cfg.Lat = DefaultLatencyModel()
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > len(cfg.Topo.Switches) {
		cfg.Shards = len(cfg.Topo.Switches)
	}
	f := &Fleet{
		cfg:       cfg,
		lat:       cfg.Lat,
		proactive: cfg.Ctrl.App.Options().Proactive,
		extraHit:  cfg.Ctrl.ExtraHitDelay,
		index:     make(map[string]int32, len(cfg.Topo.Switches)),
		hosts:     make(map[string]fleetHost),
		routeOf:   make(map[int64]int32),
		det:       cfg.Detector,
		flt:       cfg.Faults,
		fltOn:     cfg.Faults.Enabled(),
		seed:      cfg.Seed,
		reg:       cfg.Registry,
	}
	nsw := len(cfg.Topo.Switches)
	f.names = make([]string, nsw)
	f.reactive = make([]bool, nsw)
	f.tables = make([]*flowtable.Table, nsw)
	f.adj = make([][]fleetEdge, nsw)
	for i, name := range cfg.Topo.Switches {
		if _, dup := f.index[name]; dup {
			return nil, fmt.Errorf("netsim: duplicate switch %q", name)
		}
		f.names[i] = name
		f.index[name] = int32(i)
	}
	for _, l := range cfg.Topo.Links {
		a, ok := f.index[l.A]
		if !ok {
			return nil, fmt.Errorf("netsim: link references unknown switch %q", l.A)
		}
		b, ok := f.index[l.B]
		if !ok {
			return nil, fmt.Errorf("netsim: link references unknown switch %q", l.B)
		}
		d := l.DelaySec
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			// A NaN delay would also void the lookahead bound below and
			// strand every packet that crosses the link.
			return nil, fmt.Errorf("netsim: link %q–%q has invalid delay %v", l.A, l.B, d)
		}
		if d == 0 {
			d = f.lat.SwitchLink
		}
		f.adj[a] = append(f.adj[a], fleetEdge{to: b, delay: d})
		f.adj[b] = append(f.adj[b], fleetEdge{to: a, delay: d})
	}
	for i := range f.adj {
		// Deterministic exploration order for route computation: map or
		// insertion order would otherwise pick different equal-length
		// routes, breaking reproducibility and the per-path rule-install
		// locality the attack relies on.
		sort.Slice(f.adj[i], func(a, b int) bool { return f.adj[i][a].to < f.adj[i][b].to })
	}

	// Partition and lookahead. The lookahead is the minimum effective
	// delay over links whose endpoints live in different shards: any
	// event executed at time τ sends cross-shard messages arriving no
	// earlier than τ + lookahead, so a window [h, h+lookahead) is safe
	// to drain in parallel.
	part := cfg.Topo.Partition(cfg.Shards)
	f.owner = make([]int32, nsw)
	for i, s := range part {
		f.owner[i] = int32(s)
	}
	f.lookahead = math.Inf(1)
	for i := range f.adj {
		for _, e := range f.adj[i] {
			if f.owner[i] != f.owner[e.to] && e.delay < f.lookahead {
				f.lookahead = e.delay
			}
		}
	}
	f.shards = make([]*fleetShard, cfg.Shards)
	for s := range f.shards {
		f.shards[s] = &fleetShard{id: s, out: make([][]fleetMsg, cfg.Shards)}
	}
	for i := range f.owner {
		sh := f.shards[f.owner[i]]
		sh.switches = append(sh.switches, int32(i))
	}

	f.workers = cfg.Workers
	if f.workers <= 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	if f.workers > cfg.Shards {
		f.workers = cfg.Shards
	}

	if f.reg != nil {
		f.tm = fleetMetrics{
			events:    f.reg.Counter("netsim_events_total"),
			hits:      f.reg.Counter("netsim_lookups_total", "result", "hit"),
			misses:    f.reg.Counter("netsim_lookups_total", "result", "miss"),
			packetIns: f.reg.Counter("netsim_packet_ins_total"),
			drops:     f.reg.Counter("netsim_fleet_drops_total"),
			windows:   f.reg.Counter("netsim_fleet_windows_total"),
			crossings: f.reg.Counter("netsim_fleet_crossings_total"),
			rtt:       f.reg.Histogram("netsim_echo_rtt_seconds", nil),
			shards:    f.reg.Gauge("netsim_fleet_shards"),
			pending:   f.reg.Gauge("netsim_pending_events"),
			clock:     f.reg.Gauge("netsim_virtual_time_us"),
		}
		f.tm.shards.Set(int64(cfg.Shards))
		for _, sh := range f.shards {
			sh.occ = f.reg.Gauge("netsim_shard_occupancy", "shard", strconv.Itoa(sh.id))
		}
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Lookahead returns the conservative window width in seconds (+Inf for
// a single shard, which needs no windows).
func (f *Fleet) Lookahead() float64 { return f.lookahead }

// SetReactive marks a switch as running the reactive policy and builds
// its flow table. Non-reactive switches forward on pre-installed
// defaults and carry no table at all — at 10k switches, allocating
// tables only where the policy lives is most of the memory budget.
func (f *Fleet) SetReactive(name string) error {
	if f.frozen {
		return fmt.Errorf("netsim: fleet already running")
	}
	id, ok := f.index[name]
	if !ok {
		return fmt.Errorf("netsim: unknown switch %q", name)
	}
	if f.reactive[id] {
		return nil
	}
	if _, err := f.cfg.Ctrl.App.ProactivePlan(f.cfg.Capacity); err != nil {
		return err
	}
	tbl, err := flowtable.New(f.cfg.Ctrl.App.Policy(), f.cfg.Capacity, f.cfg.StepSec)
	if err != nil {
		return err
	}
	f.reactive[id] = true
	f.tables[id] = tbl
	return nil
}

// AddHost attaches a host to a switch.
func (f *Fleet) AddHost(name string, ip flows.IPv4, sw string) error {
	if f.frozen {
		return fmt.Errorf("netsim: fleet already running")
	}
	id, ok := f.index[sw]
	if !ok {
		return fmt.Errorf("netsim: unknown switch %q", sw)
	}
	if _, dup := f.hosts[name]; dup {
		return fmt.Errorf("netsim: duplicate host %q", name)
	}
	f.hosts[name] = fleetHost{ip: ip, sw: id}
	return nil
}

// Table returns the flow table of a reactive switch (nil otherwise).
func (f *Fleet) Table(name string) *flowtable.Table {
	id, ok := f.index[name]
	if !ok {
		return nil
	}
	return f.tables[id]
}

// route interns the shortest path src→dst and returns its route index.
// BFS with ID-sorted neighbors is deterministic and runs once per
// distinct (src, dst) pair; packets then follow the flat arrays.
func (f *Fleet) route(src, dst int32) (int32, error) {
	key := int64(src)<<32 | int64(dst)
	if r, ok := f.routeOf[key]; ok {
		return r, nil
	}
	var order []int32
	prev := make(map[int32]int32, 64)
	prev[src] = src
	queue := []int32{src}
	found := src == dst
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range f.adj[cur] {
			if _, seen := prev[e.to]; seen {
				continue
			}
			prev[e.to] = cur
			if e.to == dst {
				found = true
				break
			}
			queue = append(queue, e.to)
		}
	}
	if !found {
		return 0, fmt.Errorf("netsim: no path %s → %s", f.names[src], f.names[dst])
	}
	for at := dst; ; at = prev[at] {
		order = append(order, at)
		if at == src {
			break
		}
	}
	// order is dst→src; reverse into the arena with per-link delays.
	r := int32(len(f.routeOff))
	off := int32(len(f.pathSw))
	f.routeOff = append(f.routeOff, off)
	f.routeLen = append(f.routeLen, int32(len(order)))
	for i := len(order) - 1; i >= 0; i-- {
		f.pathSw = append(f.pathSw, order[i])
	}
	f.pathLink = append(f.pathLink, 0)
	for i := int32(1); i < int32(len(order)); i++ {
		a, b := f.pathSw[off+i-1], f.pathSw[off+i]
		f.pathLink = append(f.pathLink, f.linkDelayOf(a, b))
	}
	f.routeOf[key] = r
	return r, nil
}

// linkDelayOf returns the effective delay of the a↔b link.
func (f *Fleet) linkDelayOf(a, b int32) float64 {
	for _, e := range f.adj[a] {
		if e.to == b {
			return e.delay
		}
	}
	return f.lat.SwitchLink
}

// SendEcho injects an ICMP-style echo at virtual time at and returns the
// packet ID. Call between drains (injection is not thread-safe against a
// running window, by design: the attacker and the trial loop drive the
// fleet from one goroutine). An echo sent in the past is clamped to the
// current frontier.
func (f *Fleet) SendEcho(srcHost, dstHost string, at float64) (int, error) {
	src, ok := f.hosts[srcHost]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown host %q", srcHost)
	}
	dst, ok := f.hosts[dstHost]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown host %q", dstHost)
	}
	rid, err := f.route(src.sw, dst.sw)
	if err != nil {
		return 0, err
	}
	f.frozen = true
	if at < f.now {
		at = f.now
	}
	fid, known := f.cfg.Universe.Lookup(flows.FiveTuple{Src: src.ip, Dst: dst.ip, Proto: flows.ProtoICMP})
	id := len(f.pkts)
	f.pkts = append(f.pkts, fleetPacket{
		rng:    stats.NewSmallRNG(stats.Mix64(f.seed, int64(id))),
		flt:    f.flt.Packet(int64(id)),
		fid:    fid,
		route:  rid,
		sentAt: at,
		rtt:    math.NaN(),
		known:  known,
	})
	ingress := f.pathSw[f.routeOff[rid]]
	f.shards[f.owner[ingress]].push(fleetMsg{at: at + f.lat.HostLink, pkt: int32(id), hop: 0})
	return id, nil
}

// EchoStatus is the observable outcome of one injected echo.
type EchoStatus struct {
	SentAt    float64
	RTT       float64 // seconds; NaN until delivered
	Missed    bool    // some reactive switch consulted the controller
	Delivered bool
}

// Echo returns the status of packet id.
func (f *Fleet) Echo(id int) EchoStatus {
	p := &f.pkts[id]
	return EchoStatus{SentAt: p.sentAt, RTT: p.rtt, Missed: p.missed, Delivered: p.delivered}
}

// Packets returns the number of injected packets.
func (f *Fleet) Packets() int { return len(f.pkts) }

// Now returns the fleet's conservative time frontier: every event before
// it has executed.
func (f *Fleet) Now() float64 { return f.now }

// Pending returns the total number of queued events across shards.
func (f *Fleet) Pending() int {
	n := 0
	for _, sh := range f.shards {
		n += len(sh.heap)
	}
	return n
}

// clampDelay keeps a Gaussian delay draw positive: delays cannot be ≤ 0,
// so the far-left tail clamps to mean/10.
func clampDelay(v, mean float64) float64 {
	if v < mean/10 {
		return mean / 10
	}
	return v
}

// process executes one packet event on shard sh: a forward hop (lookup,
// and on a miss the controller round trip) or the reply delivery,
// operating on compiled arrays and the packet's own RNG/fault streams. Everything it
// touches is either owned by this shard (tables, the packet, the shard
// counters) or safe under concurrent use (controller, detector).
func (f *Fleet) process(sh *fleetShard, m fleetMsg) {
	p := &f.pkts[m.pkt]
	if m.hop == replyHop {
		p.rtt = m.at - p.sentAt
		p.delivered = true
		sh.delivered++
		if p.known && f.det != nil {
			f.det.ObserveRTT(int(p.fid), p.rtt*1e3)
		}
		f.observeRTT(p.rtt)
		return
	}
	off := f.routeOff[p.route]
	n := f.routeLen[p.route]
	sw := f.pathSw[off+int32(m.hop)]
	now := m.at
	delay := clampDelay(p.rng.Normal(f.lat.HopMean, f.lat.HopStd), f.lat.HopMean) + f.extraHit
	if f.fltOn {
		// Loss on the link into this switch: the packet vanishes before
		// the lookup, leaving no flow-table side effect here.
		if p.flt.Drop() {
			sh.drops++
			return
		}
		delay += (p.flt.JitterMs() + p.flt.ReorderMs()) / 1e3
	}
	if f.reactive[sw] && !f.proactive {
		hit := false
		if p.known {
			_, hit = f.tables[sw].Lookup(p.fid, now)
			if f.det != nil && m.hop == 0 {
				// The defender watches the ingress lookup point. Hop 0
				// only: a source's entire observation stream then comes
				// from one shard in virtual-time order, which is what
				// keeps detector state shard-count-invariant.
				f.det.Observe(int(p.fid), now, math.NaN(), hit)
			}
		}
		if hit {
			sh.hits++
		} else {
			p.missed = true
			sh.misses++
			sh.packetIns++
			setup := p.rng.Normal(f.lat.SetupMean, f.lat.SetupStd)
			if setup < f.lat.SetupFloor {
				setup = f.lat.SetupFloor
			}
			var dec controller.Decision
			if p.known {
				dec = f.cfg.Ctrl.App.OnPacketIn(p.fid)
			} else {
				dec = controller.Decision{Delay: f.cfg.Ctrl.App.Options().ProcessingDelay}
			}
			decDelay := dec.Delay.Seconds()
			if f.fltOn {
				setup += p.flt.StallMs() / 1e3
				decDelay = p.flt.SlowMs(decDelay*1e3) / 1e3
			}
			delay += setup + decDelay
			if dec.Install {
				f.tables[sw].Install(dec.RuleID, now)
			}
		}
	}
	if int32(m.hop)+1 < n {
		next := f.pathSw[off+int32(m.hop)+1]
		f.send(sh, f.owner[next], fleetMsg{
			at:  now + delay + f.pathLink[off+int32(m.hop)+1],
			pkt: m.pkt,
			hop: m.hop + 1,
		})
		return
	}
	// Last switch → destination host → reply riding the pre-installed
	// reply rule back along the same path: per-hop forwarding only.
	replyDelay := delay + 3*f.lat.HostLink
	for i := int32(0); i < n; i++ {
		replyDelay += clampDelay(p.rng.Normal(f.lat.HopMean, f.lat.HopStd), f.lat.HopMean) + f.extraHit
		if i > 0 {
			replyDelay += f.pathLink[off+i]
		}
	}
	if f.fltOn {
		if p.flt.Drop() {
			sh.drops++
			return
		}
		replyDelay += p.flt.JitterMs() / 1e3
	}
	ingress := f.pathSw[off]
	f.send(sh, f.owner[ingress], fleetMsg{at: now + replyDelay, pkt: m.pkt, hop: replyHop})
}

// send routes a message to its destination shard: a direct heap push
// when local, an outbox append otherwise (merged at the next barrier —
// safe, because conservative lookahead guarantees the message's time is
// at or beyond the window end).
func (f *Fleet) send(from *fleetShard, dst int32, m fleetMsg) {
	if int(dst) == from.id {
		from.push(m)
		return
	}
	from.crossings++
	from.out[dst] = append(from.out[dst], m)
}

// FleetProber sends attacker probes through a fleet and classifies their
// echo RTTs with the paper's 1 ms threshold. The state a probe reveals
// lives on every reactive switch of its path: the shared ingress switch
// in the §VI-A setup, remote edge switches in the fleet scenario.
type FleetProber struct {
	F           *Fleet
	ThresholdMs float64
}

// NewFleetProber returns a prober with the paper's 1 ms threshold.
func NewFleetProber(f *Fleet) *FleetProber {
	return &FleetProber{F: f, ThresholdMs: 1.0}
}

// Probe sends srcHost→dstHost at virtual time at, runs the fleet until
// the reply lands, and classifies the delay.
func (p *FleetProber) Probe(srcHost, dstHost string, at float64) (ProbeResult, error) {
	id, err := p.F.SendEcho(srcHost, dstHost, at)
	if err != nil {
		return ProbeResult{}, err
	}
	deadline := at + 1.0
	for !p.F.Echo(id).Delivered && p.F.Now() < deadline {
		if p.F.Pending() == 0 {
			break
		}
		p.F.RunUntil(math.Min(deadline, p.F.Now()+0.01))
	}
	st := p.F.Echo(id)
	if !st.Delivered {
		if p.F.fltOn {
			return ProbeResult{RTTms: math.NaN(), Lost: true}, nil
		}
		return ProbeResult{}, fmt.Errorf("netsim: fleet probe reply not delivered by %v", deadline)
	}
	rtt := st.RTT * 1e3
	return ProbeResult{RTTms: rtt, Hit: rtt < p.ThresholdMs}, nil
}
