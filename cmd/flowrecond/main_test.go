package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"flowrecon/internal/experiment"
	"flowrecon/internal/service"
)

func testSpec(trials, probes int) service.SessionSpec {
	p := experiment.SmallParams()
	p.Delta = 0.05
	return service.SessionSpec{
		Name: "e2e",
		Target: experiment.RecordingSpec{
			Params:      p,
			ConfigSeed:  11,
			TrialSeed:   7,
			Trials:      trials,
			Probes:      probes,
			Measurement: experiment.DefaultMeasurement(),
		},
	}
}

// startDaemon runs the full daemon lifecycle in the background and
// returns its bound address plus a shutdown func that delivers SIGTERM
// and waits for the clean-drain exit.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- runDaemon(cfg, sig, func(a string) { addrCh <- a }) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited before start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started")
	}
	return addr, func() error {
		sig <- syscall.SIGTERM
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited after SIGTERM")
			return nil
		}
	}
}

// TestDaemonEndToEnd boots flowrecond, checks the ops surface, runs one
// session over HTTP, and shuts down with a graceful SIGTERM drain.
func TestDaemonEndToEnd(t *testing.T) {
	addr, shutdown := startDaemon(t, "-max-active", "4", "-workers", "2")

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", code)
	}

	body, err := json.Marshal(testSpec(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session POST = %d: %s", resp.StatusCode, stream)
	}
	if !bytes.Contains(stream, []byte(`"type":"result"`)) {
		t.Fatalf("stream missing result line:\n%s", stream)
	}

	// The session surfaces on the list endpoint and in /metrics.
	if _, b := get("/v1/sessions"); !bytes.Contains(b, []byte(`"e2e"`)) {
		t.Fatalf("session missing from list: %s", b)
	}
	if _, b := get("/metrics"); !bytes.Contains(b, []byte("service_sessions_total")) {
		t.Fatalf("service counters missing from /metrics")
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
}

// TestDaemonChaosFlags boots the daemon with -fault-* flags (the chaos
// configuration) and verifies a session completes with probes actually
// lost to the default profile.
func TestDaemonChaosFlags(t *testing.T) {
	addr, shutdown := startDaemon(t, "-fault-seed", "3", "-fault-loss", "0.3", "-fault-jitter", "1")
	body, err := json.Marshal(testSpec(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session POST = %d", resp.StatusCode)
	}
	if !bytes.Contains(stream, []byte(`"lost":true`)) {
		t.Fatalf("chaos run dropped no probes:\n%s", stream)
	}
	if !bytes.Contains(stream, []byte(`"type":"result"`)) {
		t.Fatal("chaos session did not complete")
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestParseFlags covers flag validation.
func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-fault-loss", "1.5"}); err == nil {
		t.Fatal("invalid fault profile accepted")
	}
	cfg, err := parseFlags([]string{"-model-budget-mb", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeBudget != 2<<20 {
		t.Fatalf("storeBudget = %d", cfg.storeBudget)
	}
}
