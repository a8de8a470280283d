// Command ofswitch runs the user-space OpenFlow switch over real TCP
// against cmd/ofcontroller, then demonstrates the timing side channel by
// injecting probe packets and printing the observed delays.
//
// Usage:
//
//	ofswitch -controller 127.0.0.1:6633 -seed 1 -probes 10
//
// Chaos knobs (all seeded, reproducible): inject faults on the switch's
// side of the control channel and arm self-healing so a flaky channel
// degrades the attack instead of wedging it:
//
//	ofswitch -fault-seed 7 -fault-loss 0.02 -fault-jitter 0.5 \
//	         -reconnect-retries 10 -probe-timeout 50ms -probe-retries 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

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
	fs := flag.NewFlagSet("ofswitch", flag.ContinueOnError)
	var (
		controller = fs.String("controller", "127.0.0.1:6633", "controller TCP address")
		seed       = fs.Int64("seed", 1, "seed for the generated policy (must match the controller)")
		step       = fs.Float64("step", 0.1, "model step Δ in seconds (scales rule timeouts)")
		capacity   = fs.Int("capacity", 9, "flow table capacity (6 + 3 reserved, §VI-A)")
		probes     = fs.Int("probes", 10, "probe packets to inject")
		gap        = fs.Duration("gap", 200*time.Millisecond, "delay between probes")
		telAddr    = fs.String("telemetry-addr", "", "serve /metrics, /debug/spans, /debug/live and pprof on this address (e.g. 127.0.0.1:9090)")
		spansOut   = fs.String("spans-out", "", "write recorded causal spans as JSONL to this file at exit (join with the controller's via inspect -perfetto)")
		hold       = fs.Duration("hold", 0, "keep running (and serving telemetry) this long after the last probe")

		faultSeed    = fs.Int64("fault-seed", 0, "seed for injected faults on this side of the channel")
		faultLoss    = fs.Float64("fault-loss", 0, "probability of dropping each sent control message")
		faultJitter  = fs.Float64("fault-jitter", 0, "mean added delay per sent message, ms (exponential)")
		faultReset   = fs.Float64("fault-reset", 0, "probability of resetting the connection per write")
		reconnects   = fs.Int("reconnect-retries", 0, "redial attempts after a lost connection (0 = die on disconnect)")
		probeTimeout = fs.Duration("probe-timeout", 0, "per-probe reply timeout (0 = wait forever)")
		probeRetries = fs.Int("probe-retries", 0, "PACKET_IN retransmits before declaring a probe lost")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof := faults.Profile{
		Seed: *faultSeed, LossProb: *faultLoss,
		JitterMeanMs: *faultJitter, ResetProb: *faultReset,
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	var reg *telemetry.Registry
	if *telAddr != "" || *spansOut != "" {
		reg = telemetry.NewRegistry()
		// Namespace 1 = switch: keeps this process's span IDs disjoint
		// from the controller's (namespace 2) so the two daemons' JSONL
		// streams concatenate into one joined forest per probe.
		reg.EnableSpans(0).SetNamespace(openflow.SpanNamespaceSwitch)
		reg.EnableEvents(0)
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (spans: /debug/spans, live: /debug/live, pprof: /debug/pprof/)\n", srv.Addr())
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
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 16)
	policy, err := rules.Generate(rules.DefaultGenerateConfig(*step), stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	sw, err := openflow.NewSwitch(1, policy, universe, *capacity, *step)
	if err != nil {
		return err
	}
	if reg != nil {
		sw.SetTelemetry(reg)
	}
	// The dialer wraps each redialed transport with its own derived fault
	// stream (sub = connection ordinal); with no fault knobs set WrapConn
	// is a passthrough.
	var ordinal atomic.Int64
	dialer := func() (*openflow.Conn, error) {
		raw, err := net.DialTimeout("tcp", *controller, openflow.DefaultDialTimeout)
		if err != nil {
			return nil, err
		}
		return openflow.NewConn(faults.WrapConn(raw, prof.Stream(ordinal.Add(1)))), nil
	}
	if *reconnects > 0 {
		sw.SetReconnect(openflow.ReconnectPolicy{
			MaxRetries: *reconnects,
			Seed:       *faultSeed,
		}, dialer)
	}
	conn, err := dialer()
	if err != nil {
		return err
	}
	if err := sw.Start(conn); err != nil {
		return err
	}
	defer sw.Close()
	fmt.Printf("switch connected to %s; injecting %d probes\n", *controller, *probes)
	if prof.Enabled() || *reconnects > 0 {
		fmt.Printf("chaos armed: faults=%+v reconnects=%d probe-timeout=%v retries=%d\n",
			prof, *reconnects, *probeTimeout, *probeRetries)
	}

	covered := policy.CoveredFlows()
	var tuple flows.FiveTuple
	for f := 0; f < universe.Size(); f++ {
		if covered.Contains(flows.ID(f)) {
			tuple = universe.Tuple(flows.ID(f))
			break
		}
	}
	for i := 0; i < *probes; i++ {
		res, err := sw.InjectTimeout(tuple, *probeTimeout, *probeRetries)
		switch {
		case err == nil:
			verdict := "MISS (rule installed via controller)"
			if res.Hit {
				verdict = "HIT  (rule already cached)"
			}
			fmt.Printf("probe %2d: %-38s delay=%v\n", i+1, verdict, res.Delay)
		case errors.Is(err, openflow.ErrProbeTimeout) || errors.Is(err, openflow.ErrDisconnected):
			// Explicit loss: no observation, keep probing (the attacker's
			// no-observation case).
			fmt.Printf("probe %2d: LOST (%v)\n", i+1, err)
		default:
			return err
		}
		time.Sleep(*gap)
	}
	fmt.Printf("cached rules at exit: %v\n", sw.CachedRules())
	if *hold > 0 {
		fmt.Printf("holding for %v (telemetry stays live)\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}
