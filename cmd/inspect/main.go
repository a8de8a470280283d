// Command inspect is the forensics viewer for trial recordings
// (internal/trialrec): it summarises a recorded run, renders per-probe
// information-gain tables and causal span trees for individual trials,
// plots entropy-convergence curves, and verifies determinism by diffing
// two recordings (-diff) or re-executing the recording's own spec
// (-replay) and pinpointing the first diverging probe.
//
// Usage:
//
//	inspect run.jsonl                        # summary
//	inspect -trial 3 -gains run.jsonl        # belief trajectory of trial 3
//	                                         # (final top states sN: N is the
//	                                         # canonical subset index)
//	inspect -trial 3 -spans run.jsonl        # causal span trees of trial 3
//	inspect -entropy conv.svg run.jsonl      # entropy-convergence curves
//	inspect -diff other.jsonl run.jsonl      # first divergence between two runs
//	inspect -replay run.jsonl                # re-execute the spec and compare
//	inspect -perfetto t.json run.jsonl       # export -trial spans as a Chrome trace
//	inspect -perfetto t.json sw.jsonl ctl.jsonl  # join two daemons' span streams
//	inspect -validate-perfetto t.json        # check a trace loads (used by CI)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"flowrecon/internal/experiment"
	"flowrecon/internal/plot"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	var (
		trial    = fs.Int("trial", 0, "trial index for -gains / -spans")
		attacker = fs.String("attacker", "", "restrict -gains / -entropy to one attacker name")
		gains    = fs.Bool("gains", false, "print the per-probe gain table for -trial")
		spans    = fs.Bool("spans", false, "render the causal span trees for -trial")
		entropy  = fs.String("entropy", "", "write entropy-convergence curves as SVG to this file")
		diffPath = fs.String("diff", "", "diff against this second recording")
		replay   = fs.Bool("replay", false, "re-execute the recording's spec and diff the result")
		maxDiv   = fs.Int("max-div", 10, "maximum divergences to print")
		perfetto = fs.String("perfetto", "", "export causal spans as Chrome trace_event JSON (loadable at ui.perfetto.dev) to this file")
		validPF  = fs.Bool("validate-perfetto", false, "validate that the given file is a well-formed trace_event JSON and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validPF {
		if fs.NArg() != 1 {
			return fmt.Errorf("inspect: -validate-perfetto expects exactly one trace file (got %d)", fs.NArg())
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := telemetry.ValidatePerfetto(f)
		if err != nil {
			return fmt.Errorf("inspect: %s: %w", fs.Arg(0), err)
		}
		fmt.Fprintf(out, "perfetto trace %s: OK (%d span events)\n", fs.Arg(0), n)
		return nil
	}
	if *perfetto != "" {
		if fs.NArg() < 1 {
			return fmt.Errorf("inspect: -perfetto expects one or more input paths (recordings or span JSONL streams)")
		}
		all, err := loadSpans(fs.Args(), *trial)
		if err != nil {
			return err
		}
		f, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		if err := telemetry.WritePerfetto(all, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "perfetto trace written to %s (%d spans; open at https://ui.perfetto.dev)\n", *perfetto, len(all))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: exactly one recording path expected (got %d)", fs.NArg())
	}
	rec, err := trialrec.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	printSummary(out, rec)

	if *gains {
		if err := printGains(out, rec, *trial, *attacker); err != nil {
			return err
		}
	}
	if *spans {
		if err := printSpans(out, rec, *trial); err != nil {
			return err
		}
	}
	if *entropy != "" {
		if err := writeEntropySVG(*entropy, rec, *attacker); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nentropy-convergence curves written to %s\n", *entropy)
	}
	if *diffPath != "" {
		other, err := trialrec.ReadFile(*diffPath)
		if err != nil {
			return err
		}
		return reportDiff(out, fmt.Sprintf("vs %s", *diffPath), rec, other, *maxDiv)
	}
	if *replay {
		fmt.Fprintf(out, "\nreplaying the recording's spec…\n")
		fresh, results, err := experiment.Replay(rec)
		if err != nil {
			return err
		}
		printResults(out, results)
		return reportDiff(out, "replay", rec, fresh, *maxDiv)
	}
	return nil
}

// printSummary reports the header plus per-attacker confusion matrices
// recomputed from the recorded verdicts.
func printSummary(out io.Writer, rec *trialrec.Recording) {
	h := rec.Header
	hash := h.ConfigHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	fmt.Fprintf(out, "recording: format=%d seed=%d trials=%d config=%s\n",
		h.Format, h.Seed, len(rec.Trials), hash)
	present := 0
	for _, t := range rec.Trials {
		if t.Truth {
			present++
		}
	}
	fmt.Fprintf(out, "ground truth: target present in %d/%d windows\n\n", present, len(rec.Trials))

	fmt.Fprintf(out, "%-16s %9s %6s %6s %6s %6s %8s %10s\n",
		"attacker", "accuracy", "TP", "TN", "FP", "FN", "probes", "posterior")
	for _, name := range h.Attackers {
		var tp, tn, fp, fn, probeSum, beliefN int
		var postSum float64
		for _, t := range rec.Trials {
			at, ok := t.FindAttacker(name)
			if !ok {
				continue
			}
			switch {
			case at.Verdict && t.Truth:
				tp++
			case !at.Verdict && !t.Truth:
				tn++
			case at.Verdict && !t.Truth:
				fp++
			default:
				fn++
			}
			probeSum += len(at.Probes)
			if n := len(at.Belief); n > 0 {
				postSum += at.Belief[n-1].Posterior
				beliefN++
			}
		}
		total := tp + tn + fp + fn
		acc := 0.0
		if total > 0 {
			acc = float64(tp+tn) / float64(total)
		}
		post := "—"
		if beliefN > 0 {
			post = fmt.Sprintf("%.3f", postSum/float64(beliefN))
		}
		avgProbes := 0.0
		if total > 0 {
			avgProbes = float64(probeSum) / float64(total)
		}
		fmt.Fprintf(out, "%-16s %8.1f%% %6d %6d %6d %6d %8.1f %10s\n",
			name, 100*acc, tp, tn, fp, fn, avgProbes, post)
	}
}

// printGains renders the belief trajectory of one trial as a table: one
// row per probe with prior → posterior, realized gain, and remaining
// entropy.
func printGains(out io.Writer, rec *trialrec.Recording, trial int, attacker string) error {
	t, err := pickTrial(rec, trial)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrial %d: truth=%s, %d arrivals\n", t.Trial, presentStr(t.Truth), len(t.Arrivals))
	shown := 0
	for _, at := range t.Attackers {
		if attacker != "" && at.Name != attacker {
			continue
		}
		shown++
		fmt.Fprintf(out, "\n  %s → verdict %s\n", at.Name, presentStr(at.Verdict))
		if len(at.Belief) == 0 {
			fmt.Fprintf(out, "    (no belief trajectory: %d probes, outcomes %v)\n", len(at.Probes), at.Outcomes)
			continue
		}
		fmt.Fprintf(out, "    %3s %6s %4s %8s %10s %9s %9s %9s\n",
			"#", "probe", "hit", "prior", "posterior", "gain(b)", "H left", "P(path)")
		for _, s := range at.Belief {
			fmt.Fprintf(out, "    %3d %6d %4s %8.4f %10.4f %+9.4f %9.4f %9.2e\n",
				s.Index, s.Probe, hitMark(s.Hit), s.Prior, s.Posterior, s.GainBits, s.EntropyBits, s.PathProb)
		}
		if n := len(at.Belief); n > 0 {
			last := at.Belief[n-1]
			if len(last.TopStates) > 0 {
				fmt.Fprintf(out, "    final state belief:")
				for _, sp := range last.TopStates {
					fmt.Fprintf(out, " s%d=%.3f", sp.State, sp.P)
				}
				fmt.Fprintln(out)
			}
		}
	}
	if shown == 0 {
		return fmt.Errorf("inspect: no attacker %q in trial %d", attacker, t.Trial)
	}
	return nil
}

// printSpans renders the causal span forest of one trial as an indented
// tree with virtual-time intervals.
func printSpans(out io.Writer, rec *trialrec.Recording, trial int) error {
	t, err := pickTrial(rec, trial)
	if err != nil {
		return err
	}
	if len(t.Spans) == 0 {
		fmt.Fprintf(out, "\ntrial %d recorded no spans (recording made without span capture)\n", t.Trial)
		return nil
	}
	fmt.Fprintf(out, "\ntrial %d spans (%d):\n", t.Trial, len(t.Spans))
	forest := telemetry.BuildSpanForest(t.Spans)
	for _, root := range forest {
		renderSpan(out, root, 1)
	}
	return nil
}

func renderSpan(out io.Writer, n *telemetry.SpanNode, depth int) {
	s := n.Span
	for i := 0; i < depth; i++ {
		fmt.Fprint(out, "  ")
	}
	fmt.Fprintf(out, "%s [%.4fs → %.4fs, %.3fms]", s.Name, s.Start, s.End, 1e3*s.Duration())
	if s.Node != "" {
		fmt.Fprintf(out, " node=%s", s.Node)
	}
	if s.Flow >= 0 {
		fmt.Fprintf(out, " flow=%d", s.Flow)
	}
	if s.Rule >= 0 {
		fmt.Fprintf(out, " rule=%d", s.Rule)
	}
	if s.Detail != "" {
		fmt.Fprintf(out, " %s", s.Detail)
	}
	fmt.Fprintln(out)
	for _, c := range n.Children {
		renderSpan(out, c, depth+1)
	}
}

// writeEntropySVG plots, per attacker with a belief trajectory, the mean
// remaining entropy H(posterior) after probe k, averaged over all trials
// — the convergence picture of §V's greedy information gathering. Probe 0
// is the prior entropy before any observation.
func writeEntropySVG(path string, rec *trialrec.Recording, attacker string) error {
	var series []plot.Series
	for _, name := range rec.Header.Attackers {
		if attacker != "" && name != attacker {
			continue
		}
		sum := map[int]float64{}
		cnt := map[int]int{}
		for _, t := range rec.Trials {
			at, ok := t.FindAttacker(name)
			if !ok || len(at.Belief) == 0 {
				continue
			}
			// Index 0 on the x axis is the prior entropy.
			sum[0] += entropyBits(at.Belief[0].Prior)
			cnt[0]++
			for _, s := range at.Belief {
				sum[s.Index+1] += s.EntropyBits
				cnt[s.Index+1]++
			}
		}
		if len(cnt) == 0 {
			continue
		}
		xs := make([]int, 0, len(cnt))
		for k := range cnt {
			xs = append(xs, k)
		}
		sort.Ints(xs)
		s := plot.Series{Name: name}
		for _, k := range xs {
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, sum[k]/float64(cnt[k]))
		}
		series = append(series, s)
	}
	if len(series) == 0 {
		return fmt.Errorf("inspect: no belief trajectories to plot (recording has no model attackers?)")
	}
	c := plot.Chart{
		Title:  "Entropy convergence: mean H(X̂ | outcomes) after k probes",
		XLabel: "probes observed",
		YLabel: "remaining entropy (bits)",
		Series: series,
		YMin:   plot.Float(0),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.RenderSVG(f)
}

// reportDiff prints the divergence report between two recordings and
// returns an error when they differ, so scripts can gate on the exit
// code.
func reportDiff(out io.Writer, label string, a, b *trialrec.Recording, maxDiv int) error {
	divs := trialrec.Diff(a, b)
	if len(divs) == 0 {
		fmt.Fprintf(out, "\n%s: recordings are identical (%d trials compared)\n", label, len(a.Trials))
		return nil
	}
	fmt.Fprintf(out, "\n%s: %d divergences; first at trial %d", label, len(divs), divs[0].Trial)
	if divs[0].Attacker != "" {
		fmt.Fprintf(out, ", attacker %s", divs[0].Attacker)
	}
	if divs[0].Probe >= 0 {
		fmt.Fprintf(out, ", probe %d", divs[0].Probe)
	}
	fmt.Fprintln(out)
	for i, d := range divs {
		if i >= maxDiv {
			fmt.Fprintf(out, "  … %d more\n", len(divs)-maxDiv)
			break
		}
		fmt.Fprintf(out, "  %s\n", d.String())
	}
	return fmt.Errorf("inspect: recordings diverge (%d differences)", len(divs))
}

func printResults(out io.Writer, results []experiment.AttackerResult) {
	fmt.Fprintf(out, "\n%-16s %9s %6s %6s %6s %6s\n", "attacker", "accuracy", "TP", "TN", "FP", "FN")
	for _, r := range results {
		fmt.Fprintf(out, "%-16s %8.1f%% %6d %6d %6d %6d\n",
			r.Name, 100*r.Accuracy(), r.TruePos, r.TrueNeg, r.FalsePos, r.FalseNeg)
	}
}

// loadSpans reads causal spans from each path. A trial recording
// contributes the spans of the -trial trial; a raw span JSONL stream (the
// ofswitch/ofcontroller -spans-out format) contributes everything it
// holds. Several paths concatenate — that is how the two TCP daemons'
// namespaced streams join into one forest.
func loadSpans(paths []string, trial int) ([]telemetry.Span, error) {
	var all []telemetry.Span
	for _, path := range paths {
		rec, recErr := trialrec.ReadFile(path)
		if recErr == nil {
			t, err := pickTrial(rec, trial)
			if err != nil {
				return nil, err
			}
			if len(t.Spans) == 0 {
				return nil, fmt.Errorf("inspect: %s trial %d has no spans (recording made without span capture)", path, trial)
			}
			all = append(all, t.Spans...)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		spans, err := telemetry.ReadSpansJSONL(f)
		f.Close()
		if err != nil || len(spans) == 0 {
			return nil, fmt.Errorf("inspect: %s is neither a trial recording (%v) nor a span JSONL stream", path, recErr)
		}
		all = append(all, spans...)
	}
	return all, nil
}

func pickTrial(rec *trialrec.Recording, idx int) (trialrec.Trial, error) {
	for _, t := range rec.Trials {
		if t.Trial == idx {
			return t, nil
		}
	}
	return trialrec.Trial{}, fmt.Errorf("inspect: recording has no trial %d (0…%d)", idx, len(rec.Trials)-1)
}

func presentStr(v bool) string {
	if v {
		return "present"
	}
	return "absent"
}

func hitMark(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// entropyBits is the binary entropy of p in bits.
func entropyBits(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
