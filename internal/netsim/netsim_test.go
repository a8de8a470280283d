package netsim

import (
	"math"
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

func TestStanfordBackboneShape(t *testing.T) {
	topo := StanfordBackbone()
	if len(topo.Switches) != 16 {
		t.Fatalf("switches = %d, want 16 (§VI-A)", len(topo.Switches))
	}
	if len(topo.Links) != 1+2*14 {
		t.Fatalf("links = %d", len(topo.Links))
	}
}

// evalPolicy is the small two-rule policy of the §VI-A fabric tests.
func evalPolicy(t testing.TB) *rules.Set {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 10},
		{Name: "r1", Cover: flows.SetOf(2), Priority: 1, Timeout: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// buildEvalFleet assembles the §VI-A environment: four evaluation hosts
// and the attacker on yoza_rtr, the server on boza_rtr. Zero fields of
// cfg take the fixture defaults: the Stanford-like backbone, a 4-flow
// client/server universe, capacity 6, Δ = 0.1 s, the evalPolicy
// controller and fleet seed 3.
func buildEvalFleet(t testing.TB, cfg FleetConfig) (*Fleet, EvaluationSetup) {
	t.Helper()
	if len(cfg.Topo.Switches) == 0 {
		cfg.Topo = StanfordBackbone()
	}
	if cfg.Universe == nil {
		cfg.Universe = flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 6
	}
	if cfg.StepSec == 0 {
		cfg.StepSec = 0.1
	}
	if cfg.Ctrl.App == nil {
		cfg.Ctrl.App = controller.New(evalPolicy(t), controller.Options{})
	}
	if cfg.Seed == 0 {
		cfg.Seed = 3
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	setup, err := AttachEvaluationHosts(f, flows.MakeIPv4(10, 0, 1, 0), 4, "yoza_rtr", "boza_rtr")
	if err != nil {
		t.Fatal(err)
	}
	return f, setup
}

// sendEcho injects one echo or fails the test.
func sendEcho(t testing.TB, f *Fleet, src, dst string, at float64) int {
	t.Helper()
	id, err := f.SendEcho(src, dst, at)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSimOrdering pins the fleet's event order: by virtual time first,
// then by injection order for events at the same instant. The order is
// observable through the ingress table, where the first echo of a flow
// to arrive misses and installs the rule the next one hits.
func TestSimOrdering(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	src, dst := setup.SourceHosts[0], setup.Destination
	late := sendEcho(t, f, src, dst, 1.5)
	early := sendEcho(t, f, src, dst, 1)
	f.Run()
	if !f.Echo(early).Missed || f.Echo(late).Missed {
		t.Fatalf("time order: early missed=%v, late missed=%v; want only the early echo to miss",
			f.Echo(early).Missed, f.Echo(late).Missed)
	}
	at := f.Now() + 5 // past the 1 s idle timeout
	first := sendEcho(t, f, src, dst, at)
	second := sendEcho(t, f, src, dst, at)
	f.Run()
	if !f.Echo(first).Missed || f.Echo(second).Missed {
		t.Fatalf("tie order: first missed=%v, second missed=%v; want injection order",
			f.Echo(first).Missed, f.Echo(second).Missed)
	}
}

// TestSimRunUntil: RunUntil processes events up to its bound, leaves
// later ones queued, and advances the frontier to the bound.
func TestSimRunUntil(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	a := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 1)
	b := sendEcho(t, f, setup.SourceHosts[1], setup.Destination, 5)
	if n := f.RunUntil(2); n == 0 {
		t.Fatal("RunUntil processed no events")
	}
	if !f.Echo(a).Delivered || f.Echo(b).Delivered {
		t.Fatalf("after RunUntil(2): a delivered=%v, b delivered=%v", f.Echo(a).Delivered, f.Echo(b).Delivered)
	}
	if f.Now() != 2 || f.Pending() != 1 {
		t.Fatalf("now=%v pending=%d, want 2 and 1", f.Now(), f.Pending())
	}
	f.Run()
	if !f.Echo(b).Delivered {
		t.Fatal("remaining echo lost")
	}
}

// TestSimPastSchedulingClamps: an echo sent before the frontier is sent
// at the frontier; the clock never rewinds.
func TestSimPastSchedulingClamps(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	f.RunUntil(5)
	id := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 1)
	if got := f.Echo(id).SentAt; got != 5 {
		t.Fatalf("echo sent in the past at %v, want clamp to 5", got)
	}
	f.Run()
	st := f.Echo(id)
	if !st.Delivered || st.RTT <= 0 || f.Now() < 5 {
		t.Fatalf("clamped echo: %+v, now %v", st, f.Now())
	}
}

// TestSimPoolRecycles pins the event pool: repeated rounds of the same
// traffic reuse the shard heap's storage instead of growing it.
func TestSimPoolRecycles(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	at := 0.0
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			sendEcho(t, f, setup.SourceHosts[i%4], setup.Destination, at+float64(i)*1e-6)
		}
		f.Run()
		at = f.Now() + 0.01
	}
	if got := cap(f.shards[0].heap); got > 16 {
		t.Fatalf("heap grew to %d slots for a peak queue depth of 16 — pool not recycling", got)
	}
}

// TestNetworkPath pins route computation: the zone→core→zone route is
// the same on every run (ties between the two cores break toward the
// lower switch ID), a host pair on one switch routes through it alone,
// and a disconnected destination is an error.
func TestNetworkPath(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	if err := f.AddHost("local", flows.MakeIPv4(10, 0, 2, 0), setup.Ingress); err != nil {
		t.Fatal(err)
	}
	route := func(src, dst string) []string {
		t.Helper()
		r, err := f.route(f.index[src], f.index[dst])
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		off := f.routeOff[r]
		for _, sw := range f.pathSw[off : off+f.routeLen[r]] {
			names = append(names, f.names[sw])
		}
		return names
	}
	path := route("yoza_rtr", "boza_rtr")
	if len(path) != 3 || path[0] != "yoza_rtr" || path[1] != "bbra_rtr" || path[2] != "boza_rtr" {
		t.Fatalf("path = %v, want [yoza_rtr bbra_rtr boza_rtr]", path)
	}
	if self := route("yoza_rtr", "yoza_rtr"); len(self) != 1 {
		t.Fatalf("self path = %v", self)
	}
	if _, err := f.SendEcho(setup.SourceHosts[0], "local", 0); err != nil {
		t.Fatalf("echo between hosts on one switch: %v", err)
	}

	island := Topology{Switches: []string{"a", "b", "c"}, Links: []Link{{A: "a", B: "b"}}}
	g, err := NewFleet(FleetConfig{Topo: island, Ctrl: NewControllerModel(evalPolicy(t), controller.Options{}),
		Universe: flows.NewUniverse()})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddHost("ha", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHost("hc", 2, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SendEcho("ha", "hc", 0); err == nil {
		t.Fatal("echo to a disconnected switch accepted")
	}
}

// TestNetworkValidation covers the fabric inputs TestFleetValidation does
// not: duplicate switches, links to unknown switches, echoes to unknown
// hosts, the evaluation layout on unknown switches, and edits after the
// fleet started running.
func TestNetworkValidation(t *testing.T) {
	ctrl := NewControllerModel(evalPolicy(t), controller.Options{})
	universe := flows.NewUniverse()
	dup := Topology{Switches: []string{"a", "a"}}
	if _, err := NewFleet(FleetConfig{Topo: dup, Ctrl: ctrl, Universe: universe}); err == nil {
		t.Fatal("duplicate switch accepted")
	}
	dangling := Topology{Switches: []string{"a"}, Links: []Link{{A: "a", B: "nope"}}}
	if _, err := NewFleet(FleetConfig{Topo: dangling, Ctrl: ctrl, Universe: universe}); err == nil {
		t.Fatal("link to unknown switch accepted")
	}
	g, err := NewFleet(FleetConfig{Topo: StanfordBackbone(), Ctrl: ctrl, Universe: universe, Capacity: 4, StepSec: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachEvaluationHosts(g, 1, 2, "nope", "boza_rtr"); err == nil {
		t.Fatal("evaluation hosts on an unknown ingress accepted")
	}

	f, setup := buildEvalFleet(t, FleetConfig{})
	if _, err := f.SendEcho(setup.SourceHosts[0], "nope", 0); err == nil {
		t.Fatal("echo to unknown host accepted")
	}
	sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0)
	if err := f.AddHost("late", 99, "coza_rtr"); err == nil {
		t.Fatal("host added to a running fleet")
	}
	if err := f.SetReactive("coza_rtr"); err == nil {
		t.Fatal("switch made reactive in a running fleet")
	}
}

// controllerPacketIns counts the controller consultations of known flows.
func controllerPacketIns(f *Fleet) int64 { return f.cfg.Ctrl.App.Snapshot().PacketIns }

func TestEchoMissTheHitRTTGap(t *testing.T) {
	f, setup := buildEvalFleet(t, FleetConfig{})
	first := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0)
	second := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0.5)
	f.Run()
	miss, hit := f.Echo(first), f.Echo(second)
	if !miss.Delivered || !hit.Delivered {
		t.Fatal("echo not delivered")
	}
	if !miss.Missed {
		t.Fatal("first echo should miss at the ingress")
	}
	if hit.Missed {
		t.Fatal("second echo should ride the installed rule")
	}
	if miss.RTT < 1e-3 {
		t.Fatalf("miss RTT %v suspiciously small", miss.RTT)
	}
	if hit.RTT > 1e-3 {
		t.Fatalf("hit RTT %v too large (threshold 1ms, §VI-A)", hit.RTT)
	}
	if controllerPacketIns(f) == 0 {
		t.Fatal("no controller consultations recorded")
	}
}

func TestEchoLatencyCalibration(t *testing.T) {
	// RTT distributions through the standard path must land near the
	// paper's measurements: hit ≈ 0.087 ms, miss ≈ 4.07 ms, separable at
	// 1 ms.
	f, setup := buildEvalFleet(t, FleetConfig{})
	var hitRTT, missRTT []float64
	at := 0.0
	for i := 0; i < 400; i++ {
		miss := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, at)
		hit := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, at+0.2)
		at += 10 // beyond the 1s max idle timeout: rules expire between rounds
		f.RunUntil(at)
		m, h := f.Echo(miss), f.Echo(hit)
		if !m.Missed || h.Missed {
			t.Fatalf("round %d: miss=%v hit=%v", i, m.Missed, h.Missed)
		}
		missRTT = append(missRTT, m.RTT*1e3)
		hitRTT = append(hitRTT, h.RTT*1e3)
	}
	h := stats.Summarize(hitRTT)
	m := stats.Summarize(missRTT)
	if math.Abs(h.Mean-0.087) > 0.05 {
		t.Errorf("hit RTT mean = %.4f ms, want ≈ 0.087", h.Mean)
	}
	if math.Abs(m.Mean-4.07) > 0.6 {
		t.Errorf("miss RTT mean = %.3f ms, want ≈ 4.07", m.Mean)
	}
	// The 1 ms threshold must separate the distributions essentially
	// perfectly, as in the paper.
	for _, v := range hitRTT {
		if v >= 1 {
			t.Fatalf("hit RTT %v ms crosses the 1 ms threshold", v)
		}
	}
	misclass := 0
	for _, v := range missRTT {
		if v < 1 {
			misclass++
		}
	}
	if frac := float64(misclass) / float64(len(missRTT)); frac > 0.05 {
		t.Errorf("%.1f%% of misses below 1 ms threshold", 100*frac)
	}
}

func TestCountermeasureAddingDelays(t *testing.T) {
	// §VII-B defense 1: delaying every packet hides the gap.
	ctrl := NewControllerModel(evalPolicy(t), controller.Options{})
	ctrl.ExtraHitDelay = 2e-3
	f, setup := buildEvalFleet(t, FleetConfig{Ctrl: ctrl})
	miss := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0)
	hit := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0.3)
	f.Run()
	// Both now exceed the 1 ms threshold: the attacker's classifier fails.
	// Every switch traversal pays the delay: three switches each way.
	if m, h := f.Echo(miss), f.Echo(hit); h.Missed || h.RTT < 6*ctrl.ExtraHitDelay || m.RTT < 6*ctrl.ExtraHitDelay {
		t.Fatalf("delays not applied on every hop: hit %+v miss %+v", h, m)
	}
}

func TestCountermeasureProactive(t *testing.T) {
	// §VII-B defense 2: proactive installation removes misses entirely.
	ctrl := NewControllerModel(evalPolicy(t), controller.Options{Proactive: true})
	f, setup := buildEvalFleet(t, FleetConfig{Ctrl: ctrl})
	id := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0)
	f.Run()
	if first := f.Echo(id); first.Missed || first.RTT > 1e-3 {
		t.Fatalf("proactive network still misses: %+v", first)
	}
	if controllerPacketIns(f) != 0 {
		t.Fatal("proactive network consulted the controller")
	}
}

func TestPerSwitchTablesIndependent(t *testing.T) {
	// A rule installed at the ingress switch must not make a different
	// ingress switch hit.
	f, setup := buildEvalFleet(t, FleetConfig{})
	if err := f.AddHost("far", flows.MakeIPv4(10, 0, 1, 0), "coza_rtr"); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReactive("coza_rtr"); err != nil {
		t.Fatal(err)
	}
	e1 := sendEcho(t, f, setup.SourceHosts[0], setup.Destination, 0)
	f.Run()
	if !f.Echo(e1).Missed {
		t.Fatal("first echo should miss")
	}
	// Same flow identifier from a different ingress switch still misses
	// there (tables are per switch).
	e2 := sendEcho(t, f, "far", setup.Destination, f.Now()+0.05)
	f.Run()
	if !f.Echo(e2).Missed {
		t.Fatal("fresh ingress switch should miss")
	}
	if f.Table("coza_rtr") == f.Table(setup.Ingress) {
		t.Fatal("reactive switches share one flow table")
	}
}
