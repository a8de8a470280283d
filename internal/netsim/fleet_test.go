package netsim

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

func TestFatTreeShape(t *testing.T) {
	topo, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Switches) != 4*4+4 {
		t.Fatalf("k=4 switches = %d, want 20", len(topo.Switches))
	}
	// Per pod: (k/2)² edge-agg links; uplinks: k/2 aggs × k/2 cores.
	if want := 4*(2*2) + 4*(2*2); len(topo.Links) != want {
		t.Fatalf("k=4 links = %d, want %d", len(topo.Links), want)
	}
	if len(topo.Edges) != 8 {
		t.Fatalf("k=4 edges = %d, want 8", len(topo.Edges))
	}
	if _, err := FatTree(3); err == nil {
		t.Fatal("odd arity accepted")
	}
	if k := FatTreeArity(1000); k != 30 {
		t.Fatalf("FatTreeArity(1000) = %d, want 30", k)
	}
	big, err := FatTree(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Switches) != 1125 {
		t.Fatalf("k=30 switches = %d, want 1125", len(big.Switches))
	}
}

func TestLeafSpineShape(t *testing.T) {
	topo, err := LeafSpine(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Switches) != 9 || len(topo.Links) != 18 || len(topo.Edges) != 6 {
		t.Fatalf("leaf-spine shape: sw=%d links=%d edges=%d",
			len(topo.Switches), len(topo.Links), len(topo.Edges))
	}
	if _, err := LeafSpine(0, 3); err == nil {
		t.Fatal("empty leaf tier accepted")
	}
}

func TestPartitionContiguous(t *testing.T) {
	topo, _ := FatTree(4)
	owner := topo.Partition(3)
	last := 0
	counts := map[int]int{}
	for i, s := range owner {
		if s < last {
			t.Fatalf("partition not monotone at switch %d", i)
		}
		last = s
		counts[s]++
	}
	if len(counts) != 3 {
		t.Fatalf("partition used %d shards, want 3", len(counts))
	}
	for s, c := range counts {
		if c < len(owner)/3-2 || c > len(owner)/3+2 {
			t.Fatalf("shard %d owns %d switches (unbalanced)", s, c)
		}
	}
	// Degenerate requests clamp instead of failing.
	if got := topo.Partition(0); got[0] != 0 || got[len(got)-1] != 0 {
		t.Fatal("Partition(0) should collapse to one shard")
	}
	if got := topo.Partition(10 * len(topo.Switches)); got[len(got)-1] >= len(topo.Switches) {
		t.Fatal("Partition over-wide produced out-of-range shard")
	}
}

// fleetFixture wires a k=4 fat-tree with one host per edge switch and a
// flow universe where flow i runs host i → host (i+3) mod 8. All edges
// are reactive; each flow has its own rule.
type fleetFixture struct {
	fleet *Fleet
	hosts []string
	nflow int
}

func buildTestFleet(t testing.TB, shards, workers int, prof faults.Profile, det *detect.Detector) *fleetFixture {
	t.Helper()
	topo, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	base := flows.MakeIPv4(10, 0, 0, 0)
	universe := flows.NewUniverse()
	nflow := len(topo.Edges)
	hosts := make([]string, nflow)
	rs := make([]rules.Rule, nflow)
	for i := 0; i < nflow; i++ {
		hosts[i] = fmt.Sprintf("h%d", i)
	}
	for i := 0; i < nflow; i++ {
		j := (i + 3) % nflow
		universe.Add(fmt.Sprintf("f%d", i), flows.FiveTuple{
			Src: base + flows.IPv4(i), Dst: base + flows.IPv4(j), Proto: flows.ProtoICMP,
		})
		rs[i] = rules.Rule{Name: fmt.Sprintf("r%d", i), Cover: flows.SetOf(flows.ID(i)), Priority: i + 1, Timeout: 5}
	}
	policy, err := rules.NewSet(rs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(FleetConfig{
		Topo:     topo,
		Capacity: 6,
		StepSec:  0.1,
		Ctrl:     NewControllerModel(policy, controller.Options{}),
		Universe: universe,
		Shards:   shards,
		Workers:  workers,
		Seed:     1234,
		Faults:   prof,
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Edges {
		if err := f.SetReactive(e); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hosts {
		if err := f.AddHost(h, base+flows.IPv4(i), topo.Edges[i]); err != nil {
			t.Fatal(err)
		}
	}
	return &fleetFixture{fleet: f, hosts: hosts, nflow: nflow}
}

// inject schedules rounds of echoes on every flow at deterministic,
// slightly staggered times.
func (fx *fleetFixture) inject(t testing.TB, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < fx.nflow; i++ {
			at := 0.09*float64(r) + 0.011*float64(i)
			dst := fx.hosts[(i+3)%fx.nflow]
			if _, err := fx.fleet.SendEcho(fx.hosts[i], dst, at); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fingerprint captures everything the determinism contract covers:
// per-packet outcomes bit-for-bit, per-switch table stats, and the
// detector's verdict set.
func (fx *fleetFixture) fingerprint() string {
	f := fx.fleet
	out := fmt.Sprintf("packets=%d\n", f.Packets())
	for i := 0; i < f.Packets(); i++ {
		st := f.Echo(i)
		out += fmt.Sprintf("p%d rtt=%016x missed=%v delivered=%v\n",
			i, math.Float64bits(st.RTT), st.Missed, st.Delivered)
	}
	for _, name := range f.cfg.Topo.Edges {
		s := f.Table(name).Stats()
		out += fmt.Sprintf("%s L=%d H=%d M=%d I=%d E=%d X=%d\n",
			name, s.Lookups, s.Hits, s.Misses, s.Installs, s.Evictions, s.Expirations)
	}
	if f.det != nil {
		vs := f.det.Verdicts()
		sort.Slice(vs, func(a, b int) bool {
			if vs[a].T != vs[b].T {
				return vs[a].T < vs[b].T
			}
			return vs[a].Source < vs[b].Source
		})
		for _, v := range vs {
			out += fmt.Sprintf("flag src=%d t=%016x reason=%s\n", v.Source, math.Float64bits(v.T), v.Reason)
		}
	}
	return out
}

// TestFleetShardCountInvariance is the tentpole contract: the same
// workload — faults and detector enabled — produces bit-identical
// results at 1, 2, and 8 shards, with the worker pool engaged.
func TestFleetShardCountInvariance(t *testing.T) {
	prof := faults.Profile{
		Seed: 7, LossProb: 0.05, JitterMeanMs: 0.2,
		ReorderProb: 0.05, ReorderExtraMs: 1,
		StallProb: 0.02, StallMs: 2, SlowFactor: 1.5,
	}
	run := func(shards, workers int) string {
		fx := buildTestFleet(t, shards, workers, prof, detect.New(detect.DefaultConfig()))
		defer fx.fleet.Close()
		fx.inject(t, 12)
		fx.fleet.Run()
		return fx.fingerprint()
	}
	want := run(1, 1)
	for _, cfg := range []struct{ shards, workers int }{{2, 2}, {8, 4}, {8, 8}} {
		if got := run(cfg.shards, cfg.workers); got != want {
			t.Fatalf("fingerprint diverged at %d shards / %d workers:\n--- serial ---\n%s\n--- sharded ---\n%s",
				cfg.shards, cfg.workers, want, got)
		}
	}
}

// TestFleetRunUntilInvariance checks the windowed drive path (the one
// the prober uses): stepping in small increments must match one big Run.
func TestFleetRunUntilInvariance(t *testing.T) {
	run := func(step float64) string {
		fx := buildTestFleet(t, 4, 2, faults.Profile{}, nil)
		defer fx.fleet.Close()
		fx.inject(t, 8)
		if step <= 0 {
			fx.fleet.Run()
		} else {
			for fx.fleet.Pending() > 0 {
				fx.fleet.RunUntil(fx.fleet.Now() + step)
			}
		}
		return fx.fingerprint()
	}
	if a, b := run(0), run(0.013); a != b {
		t.Fatalf("windowed stepping diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestFleetCrossShardExchangeRace hammers the cross-shard path with the
// maximum worker parallelism so `go test -race` inspects the
// outbox/barrier handoffs.
func TestFleetCrossShardExchangeRace(t *testing.T) {
	det := detect.New(detect.DefaultConfig())
	fx := buildTestFleet(t, 8, 8, faults.Profile{Seed: 3, LossProb: 0.02, JitterMeanMs: 0.1}, det)
	defer fx.fleet.Close()
	fx.inject(t, 40)
	n := fx.fleet.Run()
	if n == 0 {
		t.Fatal("no events processed")
	}
	delivered := 0
	for i := 0; i < fx.fleet.Packets(); i++ {
		if fx.fleet.Echo(i).Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestFleetDrainZeroAlloc is the alloc gate: steady-state event
// processing — injection, hop forwarding, table lookups, cross-shard
// exchange — must not allocate. Measured on the sequential path (the
// race-free way to count), with two shards so the outbox path is
// exercised too.
func TestFleetDrainZeroAlloc(t *testing.T) {
	fx := buildTestFleet(t, 2, 1, faults.Profile{}, nil)
	defer fx.fleet.Close()
	f := fx.fleet
	// Warm every pool: routes interned, heaps/outboxes at capacity, and
	// the packet arena pre-grown past what the measured runs consume.
	fx.inject(t, 20)
	f.Run()
	grown := make([]fleetPacket, len(f.pkts), len(f.pkts)+64*fx.nflow)
	copy(grown, f.pkts)
	f.pkts = grown
	round := 0
	cycle := func() {
		at := f.Now()
		for i := 0; i < fx.nflow; i++ {
			dst := fx.hosts[(i+3)%fx.nflow]
			if _, err := f.SendEcho(fx.hosts[i], dst, at+0.001*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		f.RunUntil(at + 0.09)
		round++
	}
	cycle() // shake out remaining lazy growth
	before := f.Packets()
	avg := testing.AllocsPerRun(40, cycle)
	perEvent := avg / float64(12*fx.nflow) // ≥12 events per packet (hops + reply)
	if avg > 0.5 {
		t.Fatalf("steady-state drain allocates: %.3f allocs/cycle (%.5f/event, %d packets)",
			avg, perEvent, f.Packets()-before)
	}
}

// TestFleetCalibration re-derives the paper's §VI-A timing gap on the
// fleet engine: misses cost a controller round trip (≈4 ms), hits cost
// per-hop forwarding only (≈0.09 ms on the 3-switch backbone route),
// and the 1 ms threshold separates them cleanly.
func TestFleetCalibration(t *testing.T) {
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	policy, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 5},
		{Name: "r1", Cover: flows.SetOf(2), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(FleetConfig{
		Topo:     StanfordBackbone(),
		Capacity: 6,
		StepSec:  0.1,
		Ctrl:     NewControllerModel(policy, controller.Options{}),
		Universe: universe,
		Shards:   1,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetReactive("yoza_rtr"); err != nil {
		t.Fatal(err)
	}
	base := flows.MakeIPv4(10, 0, 1, 0)
	for i := 0; i < 4; i++ {
		if err := f.AddHost(fmt.Sprintf("h%d", i), base+flows.IPv4(i), "yoza_rtr"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddHost("server", base+4, "boza_rtr"); err != nil {
		t.Fatal(err)
	}
	pr := NewFleetProber(f)
	var missSum, hitSum float64
	const n = 60
	at := 0.0
	for i := 0; i < n; i++ {
		// First probe after expiry: miss. Second right behind it: hit.
		miss, err := pr.Probe("h0", "server", at)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := pr.Probe("h0", "server", f.Now()+0.01)
		if err != nil {
			t.Fatal(err)
		}
		if miss.Hit {
			t.Fatalf("probe %d: expected miss, rtt=%vms", i, miss.RTTms)
		}
		if !hit.Hit {
			t.Fatalf("probe %d: expected hit, rtt=%vms", i, hit.RTTms)
		}
		missSum += miss.RTTms
		hitSum += hit.RTTms
		at = f.Now() + 0.6 // past the 0.5 s idle timeout
	}
	missMean, hitMean := missSum/n, hitSum/n
	if missMean < 3 || missMean > 5.5 {
		t.Fatalf("miss mean %.3f ms outside the paper's ≈4.07 ms band", missMean)
	}
	if hitMean < 0.05 || hitMean > 0.15 {
		t.Fatalf("hit mean %.3f ms outside the paper's ≈0.087 ms band", hitMean)
	}
}

func TestFleetValidation(t *testing.T) {
	topo, _ := FatTree(4)
	universe := flows.NewUniverse()
	policy, _ := rules.NewSet([]rules.Rule{{Name: "r", Cover: flows.SetOf(0), Priority: 1, Timeout: 1}})
	ctrl := NewControllerModel(policy, controller.Options{})
	if _, err := NewFleet(FleetConfig{Topo: topo, Universe: universe}); err == nil {
		t.Fatal("fleet without controller accepted")
	}
	if _, err := NewFleet(FleetConfig{Topo: topo, Ctrl: ctrl}); err == nil {
		t.Fatal("fleet without universe accepted")
	}
	f, err := NewFleet(FleetConfig{Topo: topo, Ctrl: ctrl, Universe: universe, Capacity: 4, StepSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetReactive("nope"); err == nil {
		t.Fatal("unknown reactive switch accepted")
	}
	if err := f.AddHost("h", 1, "nope"); err == nil {
		t.Fatal("host on unknown switch accepted")
	}
	if err := f.AddHost("h", 1, topo.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.AddHost("h", 2, topo.Edges[1]); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := f.SendEcho("nope", "h", 0); err == nil {
		t.Fatal("echo from unknown host accepted")
	}
	// Link delays: 0 selects the model default; a negative or non-finite
	// delay is an error (a NaN cross-shard link would leave the lookahead
	// at +Inf and strand every packet crossing it).
	pair := func(d float64) Topology {
		return Topology{Switches: []string{"a", "b"}, Links: []Link{{A: "a", B: "b", DelaySec: d}}}
	}
	for _, d := range []float64{-1e-6, math.NaN(), math.Inf(1)} {
		if _, err := NewFleet(FleetConfig{Topo: pair(d), Ctrl: ctrl, Universe: universe, Shards: 2}); err == nil {
			t.Fatalf("link delay %v accepted", d)
		}
	}
	h, err := NewFleet(FleetConfig{Topo: pair(0), Ctrl: ctrl, Universe: universe, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.Lookahead(), DefaultLatencyModel().SwitchLink; got != want {
		t.Fatalf("zero-delay link lookahead = %v, want the model default %v", got, want)
	}
	// Shard clamp: more shards than switches must degrade, not fail.
	g, err := NewFleet(FleetConfig{Topo: topo, Ctrl: ctrl, Universe: universe, Capacity: 4, StepSec: 0.1, Shards: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != len(topo.Switches) {
		t.Fatalf("shards = %d, want clamp to %d", g.Shards(), len(topo.Switches))
	}
}
