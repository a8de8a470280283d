package telemetry

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestComputeLiveUpdateDegenerateWindows pins the NaN/Inf guards: empty
// snapshots, zero or negative elapsed, and single-sample windows must
// all encode to finite numbers.
func TestComputeLiveUpdateDegenerateWindows(t *testing.T) {
	for _, elapsed := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		u := ComputeLiveUpdate(Snapshot{}, Snapshot{}, elapsed)
		assertFiniteUpdate(t, u)
		if u.TrialsPerSec != 0 || u.ProbesPerSec != 0 || u.Accuracy != 0 {
			t.Fatalf("empty window produced nonzero rates: %+v", u)
		}
		if _, err := json.Marshal(u); err != nil {
			t.Fatalf("degenerate update not JSON-encodable: %v", err)
		}
	}

	// One sample in a zero-width window: counts pass through, rates zero.
	cur := Snapshot{Counters: map[string]int64{"experiment_trials_total": 1}}
	u := ComputeLiveUpdate(Snapshot{}, cur, 0)
	assertFiniteUpdate(t, u)
	if u.Trials != 1 || u.TrialsDelta != 1 || u.TrialsPerSec != 0 {
		t.Fatalf("single-sample window: %+v", u)
	}
}

func assertFiniteUpdate(t *testing.T, u LiveUpdate) {
	t.Helper()
	for name, v := range map[string]float64{
		"elapsed":  u.ElapsedSec,
		"trials/s": u.TrialsPerSec,
		"probes/s": u.ProbesPerSec,
		"accuracy": u.Accuracy,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s not finite: %v", name, v)
		}
	}
	for name, v := range u.AccuracyByAttacker {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("accuracy[%s] not finite: %v", name, v)
		}
	}
}

func TestComputeLiveUpdateDerivation(t *testing.T) {
	prev := Snapshot{Counters: map[string]int64{
		"experiment_trials_total":               10,
		`experiment_probes_total{result="hit"}`: 20,
		`faults_injected_total{kind="loss"}`:    1,
	}}
	cur := Snapshot{
		Counters: map[string]int64{
			"experiment_trials_total":                                     30,
			`experiment_probes_total{result="hit"}`:                       50,
			`experiment_probes_total{result="lost"}`:                      4,
			"switch_injects_total":                                        6,
			"switch_reconnects_total":                                     2,
			"switch_probe_timeouts_total":                                 3,
			`faults_injected_total{kind="loss"}`:                          5,
			`experiment_verdicts_total{attacker="m",outcome="true_pos"}`:  6,
			`experiment_verdicts_total{attacker="m",outcome="false_neg"}`: 2,
			`experiment_verdicts_total{attacker="n",outcome="true_neg"}`:  1,
			`experiment_verdicts_total{attacker="n",outcome="false_pos"}`: 1,
		},
		Gauges: map[string]int64{"experiment_trial_workers": 4},
	}
	u := ComputeLiveUpdate(prev, cur, 2)
	if u.Trials != 30 || u.TrialsDelta != 20 || u.TrialsPerSec != 10 {
		t.Fatalf("trials: %+v", u)
	}
	if u.Probes != 60 || u.ProbesDelta != 40 || u.ProbesPerSec != 20 {
		t.Fatalf("probes: %+v", u)
	}
	if u.Faults != 5 || u.FaultsDelta != 4 || u.Reconnects != 2 {
		t.Fatalf("faults: %+v", u)
	}
	if u.Lost != 7 { // 4 lost probes + 3 switch timeouts
		t.Fatalf("lost = %d, want 7", u.Lost)
	}
	if got := u.Accuracy; math.Abs(got-0.7) > 1e-12 { // (6+1)/10
		t.Fatalf("accuracy = %v, want 0.7", got)
	}
	if got := u.AccuracyByAttacker["m"]; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy[m] = %v, want 0.75", got)
	}
	if got := u.AccuracyByAttacker["n"]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("accuracy[n] = %v, want 0.5", got)
	}
	if u.Counters["switch_injects_total"] != 6 || u.Counters[`faults_injected_total{kind="loss"}`] != 4 {
		t.Fatalf("counter deltas: %+v", u.Counters)
	}
	if _, ok := u.Counters["experiment_trial_workers"]; ok {
		t.Fatal("gauge leaked into counter deltas")
	}
	if u.Gauges["experiment_trial_workers"] != 4 {
		t.Fatalf("gauges: %+v", u.Gauges)
	}
}

// TestComputeLiveUpdateFleet pins the sharded-fleet row: shard gauge,
// event rate, window/crossing counters, and the per-shard occupancy sum.
func TestComputeLiveUpdateFleet(t *testing.T) {
	prev := Snapshot{Counters: map[string]int64{"netsim_events_total": 1000}}
	cur := Snapshot{
		Counters: map[string]int64{
			"netsim_events_total":          5000,
			"netsim_fleet_windows_total":   40,
			"netsim_fleet_crossings_total": 12,
		},
		Gauges: map[string]int64{
			"netsim_fleet_shards":               8,
			`netsim_shard_occupancy{shard="0"}`: 5,
			`netsim_shard_occupancy{shard="1"}`: 7,
			"netsim_pending_events":             3,
		},
	}
	u := ComputeLiveUpdate(prev, cur, 2)
	if u.FleetShards != 8 {
		t.Fatalf("shards = %d, want 8", u.FleetShards)
	}
	if u.FleetEvents != 5000 || u.FleetEventsPerSec != 2000 {
		t.Fatalf("events: %d @ %v/s", u.FleetEvents, u.FleetEventsPerSec)
	}
	if u.FleetWindows != 40 || u.FleetCrossings != 12 {
		t.Fatalf("windows/crossings: %+v", u)
	}
	if u.FleetOccupancy != 12 {
		t.Fatalf("occupancy = %d, want 12 (5+7)", u.FleetOccupancy)
	}
	// No fleet → the whole row stays zero and is omitted from JSON.
	empty := ComputeLiveUpdate(Snapshot{}, Snapshot{}, 1)
	if empty.FleetShards != 0 || empty.FleetEvents != 0 || empty.FleetOccupancy != 0 {
		t.Fatalf("fleet fields nonzero without a fleet: %+v", empty)
	}
}

func TestDecodeLiveUpdateRoundTrip(t *testing.T) {
	in := LiveUpdate{Seq: 3, Trials: 10, Accuracy: 0.5,
		AccuracyByAttacker: map[string]float64{"m": 0.75}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeLiveUpdate(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 3 || out.Trials != 10 || out.AccuracyByAttacker["m"] != 0.75 {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if _, err := DecodeLiveUpdate([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestServeLiveSSE drives the /debug/live endpoint end to end: the first
// frame arrives immediately, is a well-formed SSE "live" event, and its
// payload decodes with elapsed forced to zero.
func TestServeLiveSSE(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("experiment_trials_total").Add(5)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/live?interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() && data == "" {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "live" || data == "" {
		t.Fatalf("no live frame: event=%q data=%q (err %v)", event, data, sc.Err())
	}
	u, err := DecodeLiveUpdate([]byte(data))
	if err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	if u.Seq != 1 || u.Trials != 5 || u.TrialsDelta != 5 {
		t.Fatalf("first frame: %+v", u)
	}
	if u.ElapsedSec != 0 || u.TrialsPerSec != 0 {
		t.Fatalf("first frame must report a zero-width window: %+v", u)
	}
	assertFiniteUpdate(t, u)
}

func TestHealthEndpoints(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 by default", got)
	}
	reg.SetReady(false)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after SetReady(false) = %d, want 503", got)
	}
	reg.SetReady(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after SetReady(true) = %d", got)
	}
	if got := status("/buildinfo"); got != http.StatusOK {
		t.Fatalf("/buildinfo = %d", got)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	reg := NewRegistry()
	l := reg.EnableEvents(0)
	l.SetClock(nil)
	for i := 0; i < 4; i++ {
		kind := "probe"
		if i == 3 {
			kind = "trial.verdict"
		}
		e := NewWideEvent(kind)
		e.Trial = i
		l.Emit(e)
	}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	lines := func(path string) []string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if sc.Text() != "" {
				out = append(out, sc.Text())
			}
		}
		return out
	}
	if got := lines("/debug/events"); len(got) != 4 {
		t.Fatalf("unfiltered: %d lines", len(got))
	}
	got := lines("/debug/events?kind=trial.verdict")
	if len(got) != 1 {
		t.Fatalf("kind filter: %d lines", len(got))
	}
	var e WideEvent
	if err := json.Unmarshal([]byte(got[0]), &e); err != nil || e.Kind != "trial.verdict" {
		t.Fatalf("bad event %q: %v", got[0], err)
	}
	if got := lines("/debug/events?n=2"); len(got) != 2 {
		t.Fatalf("n filter: %d lines", len(got))
	}
}

// TestComputeLiveUpdateService pins the flowrecond row: admission
// gauges, cumulative session count with delta, and the model store's
// residency and hit ratio.
func TestComputeLiveUpdateService(t *testing.T) {
	prev := Snapshot{Counters: map[string]int64{"service_sessions_total": 10}}
	cur := Snapshot{
		Counters: map[string]int64{
			"service_sessions_total":               74,
			`service_store_lookups{result="hit"}`:  63,
			`service_store_lookups{result="miss"}`: 1,
		},
		Gauges: map[string]int64{
			"service_sessions_active": 5,
			"service_sessions_queued": 2,
			"service_store_models":    1,
			"service_store_bytes":     4 << 20,
		},
	}
	u := ComputeLiveUpdate(prev, cur, 2)
	if u.Sessions != 74 || u.SessionsDelta != 64 {
		t.Fatalf("sessions: %d (+%d)", u.Sessions, u.SessionsDelta)
	}
	if u.SessionsActive != 5 || u.SessionsQueued != 2 {
		t.Fatalf("admission gauges: active %d queued %d", u.SessionsActive, u.SessionsQueued)
	}
	if u.ModelStoreModels != 1 || u.ModelStoreBytes != 4<<20 {
		t.Fatalf("store residency: %d models %d bytes", u.ModelStoreModels, u.ModelStoreBytes)
	}
	if u.ModelStoreHitPct < 98.4 || u.ModelStoreHitPct > 98.5 {
		t.Fatalf("hit pct = %v, want 63/64 ≈ 98.4", u.ModelStoreHitPct)
	}
	// Outside the daemon every service field stays zero (and omitted).
	empty := ComputeLiveUpdate(Snapshot{}, Snapshot{}, 1)
	if empty.Sessions != 0 || empty.SessionsActive != 0 || empty.ModelStoreHitPct != 0 {
		t.Fatalf("service fields nonzero without the daemon: %+v", empty)
	}
}
