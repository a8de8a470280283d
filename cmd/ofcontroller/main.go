// Command ofcontroller runs the reactive OpenFlow controller over real
// TCP: the Ryu-equivalent of the paper's testbed. Switches (cmd/ofswitch)
// connect to it; on every PACKET_IN it installs the highest-priority rule
// covering the reported flow.
//
// Usage:
//
//	ofcontroller -listen 127.0.0.1:6633 -seed 1 -processing 3.9ms
//	ofcontroller -detect -telemetry-addr 127.0.0.1:9091   # anomaly verdicts at /debug/detect
//
// Fault injection (chaos testing the control channel, all seeded and
// reproducible):
//
//	ofcontroller -fault-seed 7 -fault-loss 0.02 -fault-jitter 0.5 \
//	             -fault-stall-prob 0.01 -fault-stall 50
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/openflow"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ofcontroller", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:6633", "TCP listen address")
		seed       = fs.Int64("seed", 1, "seed for the generated policy (must match the switch)")
		processing = fs.Duration("processing", 3900*time.Microsecond, "simulated controller compute time per PACKET_IN")
		step       = fs.Float64("step", 0.1, "model step Δ in seconds (scales rule timeouts)")
		telAddr    = fs.String("telemetry-addr", "", "serve /metrics, /debug/spans, /debug/live and pprof on this address (e.g. 127.0.0.1:9091)")
		spansOut   = fs.String("spans-out", "", "write recorded causal spans as JSONL to this file at exit (join with the switch's via inspect -perfetto)")
		detectF    = fs.Bool("detect", false, "run the streaming timing-anomaly detector on the PACKET_IN path (verdicts → wide events; state at /debug/detect)")

		faultSeed      = fs.Int64("fault-seed", 0, "seed for injected faults (derives every fault stream)")
		faultLoss      = fs.Float64("fault-loss", 0, "probability of dropping each sent control message")
		faultJitter    = fs.Float64("fault-jitter", 0, "mean added delay per sent message, ms (exponential)")
		faultReset     = fs.Float64("fault-reset", 0, "probability of resetting a connection per write")
		faultStallProb = fs.Float64("fault-stall-prob", 0, "probability of stalling a PACKET_IN decision")
		faultStall     = fs.Float64("fault-stall", 0, "stall duration when one fires, ms")
		faultSlow      = fs.Float64("fault-slow", 0, "processing-delay multiplier (>1 slows the controller)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof := faults.Profile{
		Seed: *faultSeed, LossProb: *faultLoss, JitterMeanMs: *faultJitter,
		ResetProb: *faultReset, StallProb: *faultStallProb, StallMs: *faultStall,
		SlowFactor: *faultSlow,
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 16)
	policy, err := rules.Generate(rules.DefaultGenerateConfig(*step), stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	ctl := openflow.NewController(policy, universe, openflow.ControllerOptions{
		ProcessingDelay: *processing,
		StepSeconds:     *step,
		Faults:          prof,
	})
	if prof.Enabled() {
		fmt.Printf("fault injection armed: %+v\n", prof)
	}
	var det *detect.Detector
	if *detectF {
		det = detect.New(detect.DefaultConfig())
		ctl.SetDetector(det)
	}
	if *telAddr != "" || *spansOut != "" {
		reg := telemetry.NewRegistry()
		// Namespace 2 = controller; see the matching ofswitch comment.
		reg.EnableSpans(0).SetNamespace(openflow.SpanNamespaceController)
		events := reg.EnableEvents(0)
		ctl.SetTelemetry(reg)
		if det != nil {
			det.SetTelemetry(reg)
			// Every threshold crossing becomes one wide event in the same
			// log as the controller's decision stream.
			det.OnFlag(func(v detect.Verdict) {
				ev := telemetry.NewWideEvent("detect.flag")
				ev.Node = "detect"
				ev.T = v.T
				ev.Flow = v.Source
				ev.Outcome = v.Reason
				ev.Detail = fmt.Sprintf("score=%.2f obs=%d", v.Score, v.Obs)
				events.Emit(ev)
			})
		}
		if *telAddr != "" {
			mux := telemetry.NewMux(reg)
			if det != nil {
				mux.Handle("/debug/detect", det)
			}
			srv, err := telemetry.ServeHandler(*telAddr, mux)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("telemetry on http://%s/metrics (spans: /debug/spans, live: /debug/live, pprof: /debug/pprof/)\n", srv.Addr())
			if det != nil {
				fmt.Printf("detector armed: verdicts at http://%s/debug/detect\n", srv.Addr())
			}
		}
		if *spansOut != "" {
			path := *spansOut
			defer func() {
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return
				}
				defer f.Close()
				if err := reg.Spans().WriteJSONL(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}()
		}
	}
	addr, err := ctl.Listen(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("controller listening on %s (%d rules, Δ=%.3fs, processing %v)\n",
		addr, policy.Len(), *step, *processing)
	for _, r := range policy.Rules() {
		fmt.Printf("  %s\n", r)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down after %d packet-ins\n", ctl.PacketIns())
	if det != nil {
		snap := det.Snap(0)
		fmt.Printf("detector: %d sources tracked, %d flagged\n", snap.SourcesTracked, snap.Flagged)
	}
	return ctl.Close()
}
