package telemetry

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeHandlerStalledHeader verifies the header-read bound: a client
// that sends half a request header and then stalls is disconnected once
// readHeaderTimeout passes, and the server keeps serving other clients.
func TestServeHandlerStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	srv, err := ServeHandler("127.0.0.1:0", Handler(NewRegistry(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn) // returns once the server closes the connection
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server held a stalled header open for 5s")
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Fatalf("stalled connection closed after %v, before the %v bound", elapsed, readHeaderTimeout)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a stalled client: status %d", resp.StatusCode)
	}
}
