package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	mux := http.NewServeMux()
	Routes(mux, m)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		m.Shutdown()
	})
	return srv, m
}

func postSpec(t *testing.T, url string, spec SessionSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPStreamByteIdentical compares full JSONL response bodies for one
// spec served by a 1-worker and an 8-worker daemon, with the 8-worker
// server additionally under concurrent load — the satellite's
// "byte-identical session results at server concurrency 1 vs 8".
func TestHTTPStreamByteIdentical(t *testing.T) {
	spec := testSpec("ident", 77, 5, 3)
	srv1, _ := newTestServer(t, Config{MaxActive: 8, Workers: 1})
	srv8, _ := newTestServer(t, Config{MaxActive: 8, Workers: 8, Batch: 2})

	fetch := func(srv *httptest.Server) []byte {
		resp := postSpec(t, srv.URL, spec)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
			t.Fatalf("content type %q", got)
		}
		if resp.Header.Get("X-Session-Id") == "" {
			t.Fatal("missing X-Session-Id header")
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := fetch(srv1)
	// Load the 8-worker server with decoy sessions on a different seed so
	// trials from several sessions interleave on the pool.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSpec(t, srv8.URL, testSpec("decoy", int64(500+i), 3, 2))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	got := fetch(srv8)
	wg.Wait()
	if !bytes.Equal(want, got) {
		t.Fatalf("streams differ between 1-worker and loaded 8-worker servers:\n--- w1 ---\n%s\n--- w8 ---\n%s", want, got)
	}
	// The contract behind that equality: no server-assigned IDs in-band.
	if bytes.Contains(want, []byte(`"s0000`)) {
		t.Fatal("session ID leaked into the result stream")
	}
	// Sanity: the stream carries the expected line types.
	for _, typ := range []string{`"type":"accepted"`, `"type":"probe"`, `"type":"verdict"`, `"type":"result"`} {
		if !bytes.Contains(want, []byte(typ)) {
			t.Fatalf("stream missing %s line:\n%s", typ, want)
		}
	}
}

// TestHTTPZeroMeasurementIsDefault: a spec that carries no measurement
// (as perfbench's sessions do) is run with DefaultMeasurement, so it
// streams exactly what the same spec naming DefaultMeasurement streams.
func TestHTTPZeroMeasurementIsDefault(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxActive: 2, Workers: 2})
	fetch := func(spec SessionSpec) []byte {
		resp := postSpec(t, srv.URL, spec)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	named := testSpec("meas", 41, 6, 2)
	bare := named
	bare.Target.Measurement = experiment.Measurement{}
	want, got := fetch(named), fetch(bare)
	if !bytes.Equal(want, got) {
		t.Fatalf("a spec without a measurement streams differently:\n--- default ---\n%s\n--- none ---\n%s", want, got)
	}
}

// TestHTTPSaturated429 verifies the backpressure surface: when slots and
// queue are exhausted the API answers 429 with a Retry-After hint.
func TestHTTPSaturated429(t *testing.T) {
	srv, m := newTestServer(t, Config{MaxActive: 1, MaxQueue: -1, Workers: 1})
	hold, err := m.Open(testSpec("hold", 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp := postSpec(t, srv.URL, testSpec("over", 2, 1, 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	drainSession(t, m, hold)
}

// TestHTTPBadSpec verifies malformed and unknown-field specs get 400.
func TestHTTPBadSpec(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	for _, body := range []string{"{not json", `{"bogusField":1}`} {
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPOutOfRangeParams400 verifies that a spec whose sizes are out
// of bounds — more rules than the compact model takes, a probe window
// past experiment.MaxSteps, more mask bits, flows, cache entries or
// probes than the experiment package admits, or a negative mask width —
// is refused with 400 at admission, before the store builds anything.
func TestHTTPOutOfRangeParams400(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	srv, m := newTestServer(t, Config{MaxActive: 2, Workers: 1, Registry: reg})
	for name, edit := range map[string]func(*experiment.RecordingSpec){
		"25 rules":        func(s *experiment.RecordingSpec) { s.Params.NumRules = core.MaxCompactRules + 1 },
		"1<<16+1 steps":   func(s *experiment.RecordingSpec) { s.Params.Delta, s.Params.WindowSeconds = 1, experiment.MaxSteps+1 },
		"11 mask bits":    func(s *experiment.RecordingSpec) { s.Params.MaskBits = experiment.MaxMaskBits + 1 },
		"-1 mask bits":    func(s *experiment.RecordingSpec) { s.Params.MaskBits = -1 },
		"1025 flows":      func(s *experiment.RecordingSpec) { s.Params.NumFlows = experiment.MaxFlows + 1 },
		"25-entry cache":  func(s *experiment.RecordingSpec) { s.Params.CacheSize = experiment.MaxCacheSize + 1 },
		"9 probes":        func(s *experiment.RecordingSpec) { s.Probes = experiment.MaxSequenceProbes + 1 },
		"1<<30 mask bits": func(s *experiment.RecordingSpec) { s.Params.MaskBits = 1 << 30 },
	} {
		spec := testSpec(name, 1, 1, 1)
		edit(&spec.Target)
		resp := postSpec(t, srv.URL, spec)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if st := m.Store().Stats(); st.Builds != 0 || st.Misses != 0 {
		t.Fatalf("refused specs reached the model store: %+v", st)
	}
	if n := reg.Histogram("model_build_ms", telemetry.MillisecondBuckets()).Count(); n != 0 {
		t.Fatalf("refused specs started %d model builds", n)
	}
}

// TestHTTPTraceFile400: a spec whose trace names a server-side file — a
// pcap capture or a flow log, with or without rate fitting — is refused
// with 400 at admission: no build starts, so nothing reads the file.
func TestHTTPTraceFile400(t *testing.T) {
	srv, m := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	for _, trace := range []experiment.TraceSourceSpec{
		{Kind: "pcap", Path: "capture.pcap"},
		{Kind: "flowlog", Path: "flows.csv", FitRates: true, SHA256: strings.Repeat("0", 64)},
	} {
		spec := testSpec(trace.Kind, 1, 1, 1)
		spec.Target.Trace = &trace
		resp := postSpec(t, srv.URL, spec)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "server-side files") {
			t.Errorf("%s trace: status %d (%s), want 400 naming the file trace", trace.Kind, resp.StatusCode, body)
		}
	}
	if st := m.Store().Stats(); st.Builds != 0 || st.Misses != 0 {
		t.Fatalf("file-trace specs reached the model store: %+v", st)
	}
}

// TestHTTPOversizedSpec413 verifies the spec body bound: a body past
// maxSpecBytes is refused with 413 before it is decoded, while a spec
// just under the bound is still read (and rejected only as a bad spec).
func TestHTTPOversizedSpec413(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	for _, tc := range []struct {
		pad  int
		want int
	}{
		{maxSpecBytes, http.StatusRequestEntityTooLarge},
		{maxSpecBytes - 64, http.StatusBadRequest},
	} {
		body := `{"name":"` + strings.Repeat("x", tc.pad) + `","bogusField":1}`
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d", len(body), resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPList verifies the session listing endpoint.
func TestHTTPList(t *testing.T) {
	srv, m := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	sess, err := m.Open(testSpec("listed", 3, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	drainSession(t, m, sess)
	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "listed" || infos[0].State != "done" || infos[0].Done != 2 {
		t.Fatalf("unexpected listing: %+v", infos)
	}
}

// TestHTTPSpecCarryingUSumParams: the u-sums are exact for every state,
// so the daemon reads none of params.USum, but specs written against the
// old estimator (perfbench posts one on every session) still carry it.
// Such a spec must decode under DisallowUnknownFields and stream a
// result, and its USum values must not change a byte of the stream.
func TestHTTPSpecCarryingUSumParams(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	body := func(usum string) string {
		return `{"name":"usum","target":{"params":{"NumFlows":8,"NumRules":6,"MaskBits":3,"CacheSize":3,` +
			`"Delta":0.05,"WindowSeconds":5,"USum":` + usum + `,"AbsenceLo":0.02,"AbsenceHi":0.98},` +
			`"configSeed":11,"trialSeed":5,"trials":3,"probes":2}}`
	}
	fetch := func(usum string) []byte {
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body(usum)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("USum %s: status %d: %s", usum, resp.StatusCode, b)
		}
		if !bytes.Contains(b, []byte(`"type":"result"`)) {
			t.Fatalf("USum %s: stream has no result line:\n%s", usum, b)
		}
		return b
	}
	want := fetch(`{"ExactLimit":20000,"MCSamples":600,"Seed":1}`)
	if got := fetch(`{"ExactLimit":0,"MCSamples":1,"Seed":99}`); !bytes.Equal(got, want) {
		t.Fatalf("streams differ with params.USum:\n--- 20000/600/1 ---\n%s\n--- 0/1/99 ---\n%s", want, got)
	}
}

// TestStoreKeyIgnoresUSum: specs for one configuration that differ only
// in params.USum share one model. The second session is a store hit that
// builds no chain, and its stream is byte-identical to the first.
func TestStoreKeyIgnoresUSum(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	builds := reg.Histogram("model_build_ms", telemetry.MillisecondBuckets())
	srv, m := newTestServer(t, Config{MaxActive: 2, Workers: 1, Registry: reg})
	a, b := testSpec("usum", 5, 3, 2), testSpec("usum", 5, 3, 2)
	b.Target.Params.USum = experiment.USumRecord{ExactLimit: 0, MCSamples: 1, Seed: 99}
	ka, err := KeyForTarget(a.Target)
	if err != nil {
		t.Fatal(err)
	}
	if kb, err := KeyForTarget(b.Target); err != nil || kb != ka {
		t.Fatalf("keys differ with params.USum (err %v)", err)
	}
	fetch := func(spec SessionSpec) []byte {
		resp := postSpec(t, srv.URL, spec)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"type":"result"`)) {
			t.Fatalf("status %d, stream:\n%s", resp.StatusCode, body)
		}
		return body
	}
	want := fetch(a)
	// One store build fits the model and its target-conditioned twin M₀.
	if n := builds.Count(); n != 2 {
		t.Fatalf("first session observed %d model_build_ms, want 2 (M and M₀)", n)
	}
	if got := fetch(b); !bytes.Equal(got, want) {
		t.Fatalf("streams differ with params.USum:\n%s\n---\n%s", want, got)
	}
	if st := m.Store().Stats(); st.Builds != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("store builds/misses/hits = %d/%d/%d, want 1/1/1", st.Builds, st.Misses, st.Hits)
	}
	if n := builds.Count(); n != 2 {
		t.Fatalf("%d model_build_ms after both sessions, want 2: the second one built a model", n)
	}
}
