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
