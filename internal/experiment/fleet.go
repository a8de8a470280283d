package experiment

// Fleet-scale reconnaissance scenario (EXPERIMENTS.md §16): the paper's
// single-switch timing attack lifted onto a generated datacenter fabric.
// The attacker sits behind one edge switch, yet infers the rule state of
// REMOTE edge switches it never talks to directly, because the reactive
// controller is shared: a probe to a remote host crosses both the
// attacker's edge and the victim's edge, and only rules missing at the
// remote edge cost a controller round trip.
//
// The construction mirrors §IV-B's covering-rule trick, split across
// switches. The policy carries two rules over four flows:
//
//	r_tgt  (high priority):  {f_target, f_probeB, f_probeD}
//	r_warm (low priority):   {f_warm,   f_probeB, f_probeD}
//
// The attacker first sends f_warm (a flow between two of its own local
// hosts), which caches r_warm at its home edge. From then on, a probe
// flow hits at the home edge unconditionally — so its RTT measures the
// REMOTE edge alone: if the target flow ran recently, the remote edge
// holds r_tgt (which covers the probe) and the probe hits end to end
// (≈0.2 ms across the fabric); otherwise the remote lookup misses and
// pays the controller setup (≈4 ms). The 1 ms threshold separates the
// two exactly as in the single-switch attack. As in the paper, a probe
// miss installs the covering rule remotely (pollution), which is why
// each trial rebuilds the fleet.
//
// Every trial derives its traffic, fleet, and fault seeds from
// (Seed, trial) alone, so a run is a pure function of its options — in
// particular, recordings are byte-identical at every shard and worker
// count, which is what the shard-determinism tests pin.

import (
	"fmt"
	"io"
	"math"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/flows"
	"flowrecon/internal/netsim"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
	"flowrecon/internal/workload"
)

// FleetAttackerName identifies the scenario's attacker in recordings.
const FleetAttackerName = "fleet-remote-timing"

// FleetOptions configures the fleet scenario. The zero value is not
// runnable; use DefaultFleetOptions as the base.
type FleetOptions struct {
	// Topo selects the fabric: "fattree", "leafspine", or "backbone"
	// (the 16-switch paper topology; too small for the remote-edge
	// scenario, accepted by BuildFleetTopology for the CLIs).
	Topo string
	// Switches is the fleet-size floor for generated fabrics; the
	// generator rounds up to the nearest valid shape.
	Switches int
	// Shards is the number of simulation shards (≤ 1 = serial run).
	// Results are byte-identical at every value.
	Shards int
	// Workers caps the drain goroutines (0 = GOMAXPROCS, clamped to
	// Shards).
	Workers int
	// Trials is the number of independent trials.
	Trials int
	// Seed is the root seed; every per-trial stream derives from it.
	Seed int64
	// Horizon is the background-traffic window per trial (seconds).
	Horizon float64
	// Faults, when enabled, injects per-packet loss/jitter/stall faults
	// into the fabric. Per-trial substreams derive from Faults.Seed and
	// the trial index, never from the shard layout.
	Faults faults.Profile
	// Detect attaches a fresh streaming detector to every trial's
	// controller path; flags accumulate into FleetOutcome.Flagged.
	Detect *detect.Config
	// Registry receives the netsim fleet instruments; nil disables them.
	Registry *telemetry.Registry
	// Recorder streams the forensic recording (trialrec JSONL). Nil
	// disables recording.
	Recorder *trialrec.Recorder
}

// The fleet scenario's switch and traffic parameters: paper-calibrated
// tables (a 0.5 s idle timeout) and a target flow whose duty cycle keeps
// truth near 50/50.
const (
	fleetRate         = 1.5 // the target flow's Poisson rate (arrivals/second)
	fleetCapacity     = 8   // per-switch flow-table capacity
	fleetStepSec      = 0.1 // table timestep (seconds)
	fleetTimeoutSteps = 5   // the covering rules' idle timeout in steps
)

// DefaultFleetOptions returns a runnable small-fleet configuration: a
// k=4 fat-tree, 20 trials of a 4 s traffic window each.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{
		Topo:     "fattree",
		Switches: 20,
		Shards:   1,
		Trials:   20,
		Seed:     1,
		Horizon:  4.0,
	}
}

// FleetOutcome aggregates a fleet run.
type FleetOutcome struct {
	Result    AttackerResult
	Switches  int
	Shards    int
	Lookahead float64
	// Flagged counts detector verdicts across all trials (0 without
	// Detect).
	Flagged int
}

// WriteFleet prints a fleet run summary in the style of the other
// experiment reports.
func WriteFleet(w io.Writer, out FleetOutcome) error {
	r := out.Result
	look := fmt.Sprintf("%.0f µs", out.Lookahead*1e6)
	if math.IsInf(out.Lookahead, 1) {
		look = "∞ (single shard)"
	}
	if _, err := fmt.Fprintf(w, "fleet-scale reconnaissance (%d switches, %d shards, lookahead %s)\n",
		out.Switches, out.Shards, look); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %9s %6s %6s %6s %6s\n", "attacker", "accuracy", "TP", "TN", "FP", "FN"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %8.1f%% %6d %6d %6d %6d\n",
		r.Name, 100*r.Accuracy(), r.TruePos, r.TrueNeg, r.FalsePos, r.FalseNeg); err != nil {
		return err
	}
	if out.Flagged > 0 {
		if _, err := fmt.Fprintf(w, "defender flagged the probe stream %d time(s)\n", out.Flagged); err != nil {
			return err
		}
	}
	return nil
}

// BuildFleetTopology resolves a CLI topology selection. kind "backbone"
// ignores switches; the generated fabrics round the request up to the
// nearest valid shape.
func BuildFleetTopology(kind string, switches int) (netsim.Topology, error) {
	switch kind {
	case "", "backbone":
		return netsim.StanfordBackbone(), nil
	case "fattree":
		if switches < 1 {
			switches = 20
		}
		return netsim.FatTree(netsim.FatTreeArity(switches))
	case "leafspine":
		if switches < 3 {
			switches = 3
		}
		// Classic 2:1 leaf:spine split, at least one of each.
		leaves := (2*switches + 2) / 3
		spines := switches - leaves
		if spines < 1 {
			spines = 1
			leaves = switches - 1
		}
		return netsim.LeafSpine(leaves, spines)
	default:
		return netsim.Topology{}, fmt.Errorf("experiment: unknown topology %q (want backbone, fattree, or leafspine)", kind)
	}
}

// fleetLayout is the per-run static wiring: the topology, the flow
// universe, the policy, and the chosen host placements. It is a pure
// function of FleetOptions, shared by every trial.
type fleetLayout struct {
	topo                       netsim.Topology
	policy                     *rules.Set
	univ                       *flows.Universe
	homeEdge, remoteB, remoteD string
}

const (
	fleetFlowTarget = flows.ID(0)
	fleetFlowWarm   = flows.ID(1)
	fleetFlowProbeB = flows.ID(2)
	fleetFlowProbeD = flows.ID(3)
)

func newFleetLayout(o FleetOptions) (*fleetLayout, error) {
	topo, err := BuildFleetTopology(o.Topo, o.Switches)
	if err != nil {
		return nil, err
	}
	if len(topo.Edges) < 3 {
		return nil, fmt.Errorf("experiment: fleet scenario needs ≥3 edge switches (topology %q has %d); use fattree or leafspine", o.Topo, len(topo.Edges))
	}
	l := &fleetLayout{topo: topo}
	// Attacker home on the first edge; victims as far apart as the
	// fabric allows (cross-pod on a fat-tree).
	l.homeEdge = topo.Edges[0]
	l.remoteB = topo.Edges[len(topo.Edges)/2]
	l.remoteD = topo.Edges[len(topo.Edges)-1]

	base := flows.MakeIPv4(10, 8, 0, 0)
	l.univ = flows.NewUniverse()
	// IDs are assignment order — keep in sync with the fleetFlow consts.
	l.univ.Add("f_target", flows.FiveTuple{Src: base + 2, Dst: base + 4, Proto: flows.ProtoICMP})
	l.univ.Add("f_warm", flows.FiveTuple{Src: base + 0, Dst: base + 1, Proto: flows.ProtoICMP})
	l.univ.Add("f_probeB", flows.FiveTuple{Src: base + 0, Dst: base + 2, Proto: flows.ProtoICMP})
	l.univ.Add("f_probeD", flows.FiveTuple{Src: base + 0, Dst: base + 4, Proto: flows.ProtoICMP})

	l.policy, err = rules.NewSet([]rules.Rule{
		{Name: "r_tgt", Cover: flows.SetOf(fleetFlowTarget, fleetFlowProbeB, fleetFlowProbeD), Priority: 2, Timeout: fleetTimeoutSteps},
		{Name: "r_warm", Cover: flows.SetOf(fleetFlowWarm, fleetFlowProbeB, fleetFlowProbeD), Priority: 1, Timeout: fleetTimeoutSteps},
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// build instantiates a fresh fleet for one trial (tables start empty;
// probe pollution does not leak across trials).
func (l *fleetLayout) build(o FleetOptions, fleetSeed int64, prof faults.Profile, det *detect.Detector) (*netsim.Fleet, error) {
	f, err := netsim.NewFleet(netsim.FleetConfig{
		Topo:     l.topo,
		Capacity: fleetCapacity,
		StepSec:  fleetStepSec,
		Ctrl:     netsim.NewControllerModel(l.policy, controller.Options{}),
		Universe: l.univ,
		Shards:   o.Shards,
		Workers:  o.Workers,
		Seed:     fleetSeed,
		Faults:   prof,
		Detector: det,
		Registry: o.Registry,
	})
	if err != nil {
		return nil, err
	}
	base := flows.MakeIPv4(10, 8, 0, 0)
	for _, h := range []struct {
		name string
		ip   flows.IPv4
		sw   string
	}{
		{"attacker", base + 0, l.homeEdge},
		{"warmpeer", base + 1, l.homeEdge},
		{"victimB", base + 2, l.remoteB},
		{"victimD", base + 4, l.remoteD},
	} {
		if err := f.AddHost(h.name, h.ip, h.sw); err != nil {
			return nil, err
		}
	}
	for _, e := range []string{l.homeEdge, l.remoteB, l.remoteD} {
		if err := f.SetReactive(e); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// RunFleetTrials executes the multi-switch reconnaissance experiment.
// Trial t's background traffic, fleet RNG, and fault substreams all
// derive from (opts.Seed, t), so the outcome — and the recording, when
// one is attached — is a pure function of opts, independent of Shards
// and Workers.
func RunFleetTrials(opts FleetOptions) (FleetOutcome, error) {
	var out FleetOutcome
	if opts.Trials < 1 {
		return out, fmt.Errorf("experiment: fleet run needs ≥1 trial")
	}
	layout, err := newFleetLayout(opts)
	if err != nil {
		return out, err
	}
	out.Switches = len(layout.topo.Switches)
	out.Result.Name = FleetAttackerName
	idle := fleetTimeoutSteps * fleetStepSec
	faulty := opts.Faults.Enabled()

	for trial := 0; trial < opts.Trials; trial++ {
		traceSeed := stats.Mix64(opts.Seed, int64(2*trial))
		fleetSeed := stats.Mix64(opts.Seed, int64(2*trial+1))
		prof := opts.Faults
		if faulty {
			prof.Seed = opts.Faults.SubSeed(int64(trial))
		}
		var det *detect.Detector
		if opts.Detect != nil {
			det = detect.New(*opts.Detect)
		}
		trace, err := workload.GeneratePoisson(workload.PoissonConfig{
			Rates: []float64{fleetRate}, Duration: opts.Horizon,
		}, stats.NewRNG(traceSeed))
		if err != nil {
			return out, err
		}
		fleet, err := layout.build(opts, fleetSeed, prof, det)
		if err != nil {
			return out, err
		}
		out.Shards = fleet.Shards()
		out.Lookahead = fleet.Lookahead()
		for _, a := range trace.Arrivals() {
			if _, err := fleet.SendEcho("victimB", "victimD", a.Time); err != nil {
				fleet.Close()
				return out, err
			}
		}
		// Warm r_warm at the home edge so probe RTTs measure the remote
		// edge alone, then probe both victim edges back to back.
		warmAt := opts.Horizon + 0.002
		if _, err := fleet.SendEcho("attacker", "warmpeer", warmAt); err != nil {
			fleet.Close()
			return out, err
		}
		pr := netsim.NewFleetProber(fleet)
		probeAt := warmAt + 0.005
		resB, err := pr.Probe("attacker", "victimB", probeAt)
		if err != nil {
			fleet.Close()
			return out, err
		}
		resD, err := pr.Probe("attacker", "victimD", fleet.Now()+0.001)
		if err != nil {
			fleet.Close()
			return out, err
		}
		fleet.Close()

		// A lost probe reads as a miss (the attacker saw no fast reply).
		hitB := resB.Hit && !resB.Lost
		hitD := resD.Hit && !resD.Lost
		verdict := hitB && hitD
		truth := trace.OccurredWithin(fleetFlowTarget, probeAt, idle)
		score(&out.Result, verdict, truth)
		if det != nil {
			out.Flagged += len(det.Verdicts())
		}
		if opts.Recorder.Enabled() {
			att := trialrec.AttackerTrial{
				Name:     FleetAttackerName,
				Probes:   []flows.ID{fleetFlowProbeB, fleetFlowProbeD},
				Outcomes: []bool{hitB, hitD},
				Verdict:  verdict,
			}
			if faulty {
				att.Lost = []bool{resB.Lost, resD.Lost}
			}
			opts.Recorder.BeginTrial(trial, truth, trace.Arrivals())
			opts.Recorder.Attacker(att)
			if err := opts.Recorder.EndTrial(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}
