// Command flowrecond is the multi-tenant attack daemon: it accepts
// attack-session requests over HTTP (a JSON spec naming the target
// configuration, workload and budget), runs them concurrently against
// simulated targets on a shared batched scheduler, and streams each
// session's per-probe results back as JSONL. Sessions attacking the same
// configuration share one §IV-B model build through the model store.
//
// Usage:
//
//	flowrecond -addr 127.0.0.1:8070
//	flowrecond -addr 127.0.0.1:8070 -max-active 32 -workers 4 -model-budget-mb 256
//	flowrecond -addr 127.0.0.1:8070 -detect -fault-seed 9 -fault-loss 0.02
//
// Open a session with curl (see README for a full spec):
//
//	curl -sN -X POST http://127.0.0.1:8070/v1/sessions -d @session.json
//
// The ops surface rides on the same address: /metrics, /debug/live,
// /healthz, /readyz (503 while draining), /debug/detect with -detect.
// SIGTERM drains gracefully: new sessions are refused while open ones
// finish, bounded by -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/service"
	"flowrecon/internal/telemetry"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := runDaemon(cfg, sig, func(addr string) {
		fmt.Printf("flowrecond listening on http://%s (POST /v1/sessions; watch with: flowtop -addr %s)\n", addr, addr)
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// daemonConfig carries the parsed flag values.
type daemonConfig struct {
	addr         string
	maxActive    int
	maxQueue     int
	workers      int
	batch        int
	storeSize    int
	storeBudget  int64
	drainTimeout time.Duration
	detect       bool
	faults       faults.Profile
}

func parseFlags(args []string) (daemonConfig, error) {
	fs := flag.NewFlagSet("flowrecond", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8070", "listen address for the session API and ops surface")
		maxActive   = fs.Int("max-active", 64, "concurrently running sessions")
		maxQueue    = fs.Int("max-queue", 128, "sessions waiting for a slot before 429s (-1 disables queueing)")
		workers     = fs.Int("workers", 0, "scheduler worker pool size (≤0 → 1)")
		batch       = fs.Int("batch", service.DefaultBatch, "trials a worker takes per target round")
		storeSize   = fs.Int("model-store", service.DefaultStoreSize, "model-store entry cap (LRU beyond it)")
		budgetMB    = fs.Int("model-budget-mb", 0, "model-store byte budget in MiB (0 = entry cap only)")
		drainT      = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
		detectF     = fs.Bool("detect", false, "aggregate every detecting session's defender view at /debug/detect")
		faultSeed   = fs.Int64("fault-seed", 0, "seed for default injected probe faults (chaos runs)")
		faultLoss   = fs.Float64("fault-loss", 0, "default probability each probe is lost (sessions may override)")
		faultJitter = fs.Float64("fault-jitter", 0, "default mean added probe delay, ms (exponential)")
	)
	if err := fs.Parse(args); err != nil {
		return daemonConfig{}, err
	}
	cfg := daemonConfig{
		addr:         *addr,
		maxActive:    *maxActive,
		maxQueue:     *maxQueue,
		workers:      *workers,
		batch:        *batch,
		storeSize:    *storeSize,
		storeBudget:  int64(*budgetMB) << 20,
		drainTimeout: *drainT,
		detect:       *detectF,
	}
	if *faultLoss > 0 || *faultJitter > 0 {
		cfg.faults = faults.Profile{Seed: *faultSeed, LossProb: *faultLoss, JitterMeanMs: *faultJitter}
		if err := cfg.faults.Validate(); err != nil {
			return daemonConfig{}, err
		}
	}
	return cfg, nil
}

// runDaemon brings the service up, reports its bound address through
// started, and blocks until a signal arrives, then drains and exits.
// Factored from main so tests can drive the full lifecycle.
func runDaemon(cfg daemonConfig, sig <-chan os.Signal, started func(addr string)) error {
	reg := telemetry.NewRegistry()
	reg.SetReady(false)

	var detAgg *detect.Detector
	if cfg.detect {
		detAgg = detect.New(detect.DefaultConfig())
		detAgg.SetTelemetry(reg)
	}
	m := service.NewManager(service.Config{
		MaxActive:       cfg.maxActive,
		MaxQueue:        cfg.maxQueue,
		Workers:         cfg.workers,
		Batch:           cfg.batch,
		StoreSize:       cfg.storeSize,
		StoreBytes:      cfg.storeBudget,
		Registry:        reg,
		Faults:          cfg.faults,
		DetectAggregate: detAgg,
	})
	mux := telemetry.NewMux(reg)
	service.Routes(mux, m)
	if detAgg != nil {
		mux.HandleFunc("/debug/detect", detAgg.ServeHTTP)
	}
	srv, err := telemetry.ServeHandler(cfg.addr, mux)
	if err != nil {
		return err
	}
	defer srv.Close()
	if cfg.faults.Enabled() {
		fmt.Printf("default fault profile armed: %+v (sessions may override)\n", cfg.faults)
	}
	reg.SetReady(true)
	if started != nil {
		started(srv.Addr())
	}

	s := <-sig
	fmt.Printf("%s: draining (bound %s)…\n", s, cfg.drainTimeout)
	// Readiness drops first so load balancers stop routing new sessions,
	// then the drain refuses stragglers while open sessions finish.
	reg.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := m.Drain(ctx)
	m.Shutdown()
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("drained cleanly")
	if detAgg != nil {
		snap := detAgg.Snap(0)
		fmt.Printf("defender view: %d sources tracked, %d flagged\n", snap.SourcesTracked, snap.Flagged)
	}
	return nil
}
