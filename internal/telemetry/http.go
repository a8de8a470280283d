package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// Handler returns the live-introspection HTTP handler for a registry:
//
//	/metrics       — Prometheus text exposition of every instrument
//	/debug/events  — the wide-event log's ring as JSONL (empty when
//	                 disabled); supports ?kind=probe (exact event-kind
//	                 filter) and ?n=100 (only the most recent n matching
//	                 events)
//	/debug/spans   — recorded causal spans as JSONL (empty when disabled)
//	/debug/vars    — the full Snapshot as indented JSON
//	/debug/live    — Server-Sent Events stream of LiveUpdate frames;
//	                 ?interval=500ms sets the frame period (default 1s)
//	/healthz       — liveness: always 200 while the process serves
//	/readyz        — readiness: 200 or 503 per Registry.SetReady
//	/buildinfo     — module path, VCS revision, Go version as JSON
//	/debug/pprof/  — the standard net/http/pprof profiles
//
// The handler is safe on a nil registry (endpoints serve empty bodies,
// /readyz reports ready).
func Handler(r *Registry) http.Handler { return NewMux(r) }

// NewMux returns the introspection mux itself so daemons can mount
// additional endpoints beside the standard set (the detector mounts
// /debug/detect here) before passing it to ServeHandler.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if s := r.Spans(); s != nil {
			_ = s.WriteJSONL(w)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		l := r.Events()
		if l == nil {
			return
		}
		events := FilterWideEvents(l.Events(), req.URL.Query().Get("kind"), parseN(req.URL.Query().Get("n")))
		enc := json.NewEncoder(w)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/live", func(w http.ResponseWriter, req *http.Request) {
		serveLive(w, req, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !r.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildInfo())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BuildInfo is the /buildinfo payload: enough to answer "what exactly is
// this binary" when triaging a long-running daemon.
type BuildInfo struct {
	Path      string `json:"path,omitempty"`
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
	VCSTime   string `json:"vcsTime,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

func buildInfo() BuildInfo {
	info := BuildInfo{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Path = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.time":
				info.VCSTime = s.Value
			case "vcs.modified":
				info.Modified = s.Value == "true"
			}
		}
	}
	return info
}

// serveLive streams LiveUpdate frames as Server-Sent Events until the
// client disconnects. Each frame is the delta between two consecutive
// snapshots; the first frame's delta is the cumulative state, so a
// late-attaching client immediately sees where the run stands.
func serveLive(w http.ResponseWriter, req *http.Request, r *Registry) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if s := req.URL.Query().Get("interval"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d >= 10*time.Millisecond {
			interval = d
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var prev Snapshot
	last := time.Now()
	var seq int64
	send := func() bool {
		cur := r.Snapshot()
		now := time.Now()
		elapsed := now.Sub(last).Seconds()
		if seq == 0 {
			// The first frame's "delta" is the cumulative state; a
			// near-zero elapsed would turn it into a nonsense rate.
			elapsed = 0
		}
		u := ComputeLiveUpdate(prev, cur, elapsed)
		seq++
		u.Seq = seq
		prev, last = cur, now
		line, err := json.Marshal(u)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: live\ndata: %s\n\n", line); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// Immediate first frame so clients render without waiting a period.
	if !send() {
		return
	}
	for {
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
			if !send() {
				return
			}
		}
	}
}

// parseN parses the ?n= query value (0 — meaning "no limit" — on absent
// or malformed input).
func parseN(s string) int {
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Server is a running telemetry HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the introspection endpoint on addr ("127.0.0.1:0" for an
// ephemeral port) in a background goroutine and returns the running
// server.
func Serve(addr string, r *Registry) (*Server, error) {
	return ServeHandler(addr, Handler(r))
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that stalls mid-header cannot hold a server
// goroutine open. The server sets no WriteTimeout: /debug/live and the
// flowrecond session streams are long-lived responses by design.
// A variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// ServeHandler starts a background HTTP server for an arbitrary handler —
// the variant daemons use after extending the mux from NewMux.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
