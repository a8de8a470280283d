package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A regeneration samples exactly fig6Attempts small-scale configurations
// (each one a §IV-B model build) and runs fig6Trials trials on each that
// qualifies, so its cost barely depends on the seed. When none of the
// sampled configurations qualifies, experiments reports that it has no
// figure to draw and exits 1; that is the correct outcome for such a
// seed, so it counts as a completed regeneration, not a failure. Every
// regeneration in a run uses its own seed, so a run averages over about a
// thousand configurations.
const (
	fig6Attempts = 40
	fig6Trials   = 100
	fig6Setups   = 9 // start-up samples per run (single-configuration regenerations)
	fig6Replays  = 4 // regenerations re-run to check determinism
)

// regeneration is one experiments -fig6 process.
type regeneration struct {
	wall      time.Duration
	output    []byte // stdout without its wall-clock lines, then the CSV
	noFigure  bool   // exited reporting that no configuration qualified
	bad       error  // the figure it drew breaks an invariant
	usage     *syscall.Rusage
	telemetry *snapshot
}

var sampledRE = regexp.MustCompile(`; (\d+) configs from (\d+) sampled\)`)

// regenerate runs one regeneration sampling attempts configurations in
// dir, which it overwrites.
func regenerate(cfg runConfig, seed int64, attempts int, dir string, withTelemetry bool) (*regeneration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	telPath := filepath.Join(dir, "telemetry.json")
	args := []string{
		"-fig6", "-scale", "small",
		"-configs", "1000000", "-attempts", strconv.Itoa(attempts),
		"-trials", strconv.Itoa(fig6Trials),
		"-seed", strconv.FormatInt(seed, 10),
		"-csv", dir,
	}
	if withTelemetry {
		args = append(args, "-telemetry-out", telPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, "experiments"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := &regeneration{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		r.usage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	if err != nil {
		if strings.Contains(stderr.String(), "no qualifying configurations") {
			r.noFigure = true
			return r, nil
		}
		return nil, fmt.Errorf("experiments -fig6 -seed %d: %v: %s", seed, err, bytes.TrimSpace(stderr.Bytes()))
	}
	var kept bytes.Buffer
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "(figure 6 took") && !strings.HasPrefix(line, "telemetry snapshot written") {
			kept.WriteString(line)
		}
	}
	table, err := os.ReadFile(filepath.Join(dir, "fig6.csv"))
	if err != nil {
		return nil, err
	}
	r.output = append(kept.Bytes(), table...)
	if m := sampledRE.FindStringSubmatch(stdout.String()); m == nil {
		r.bad = fmt.Errorf("experiments -fig6 -seed %d: no sample summary in output", seed)
	} else if sampled, _ := strconv.Atoi(m[2]); sampled != attempts {
		r.bad = fmt.Errorf("experiments -fig6 -seed %d sampled %d configurations, want %d", seed, sampled, attempts)
	} else if err := checkFig6CSV(table, m[1]); err != nil {
		r.bad = fmt.Errorf("experiments -fig6 -seed %d: %w", seed, err)
	}
	if withTelemetry {
		b, err := os.ReadFile(telPath)
		if err != nil {
			return nil, err
		}
		r.telemetry = &snapshot{}
		if err := json.Unmarshal(b, r.telemetry); err != nil {
			return nil, fmt.Errorf("decode %s: %w", telPath, err)
		}
	}
	return r, nil
}

// checkFig6CSV checks the per-configuration table against the configuration
// count the text output reports: one row per qualifying configuration, each
// with an optimal probe different from the target (the Figure 6 qualifying
// rule) and probabilities in [0, 1].
func checkFig6CSV(table []byte, reported string) error {
	rows, err := csv.NewReader(bytes.NewReader(table)).ReadAll()
	if err != nil {
		return fmt.Errorf("fig6.csv: %w", err)
	}
	configs, err := strconv.Atoi(reported)
	if err != nil || configs < 1 {
		return fmt.Errorf("fig6.csv: output reports %q configurations", reported)
	}
	if len(rows) != configs+1 || len(rows[0]) < 5 || rows[0][0] != "p_absent" || rows[0][2] != "target" || rows[0][3] != "optimal" {
		return fmt.Errorf("fig6.csv: %d rows, header %v; want %d configurations", len(rows), rows[0], configs)
	}
	for _, row := range rows[1:] {
		if row[2] == row[3] {
			return fmt.Errorf("fig6.csv: optimal probe equals target in %v", row)
		}
		for j, cell := range row {
			if j == 1 || j == 2 || j == 3 {
				continue
			}
			p, err := strconv.ParseFloat(cell, 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("fig6.csv: %q is not a probability in %v", cell, row)
			}
		}
	}
	return nil
}

// runFig6 measures back-to-back Figure 6 regenerations.
func runFig6(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	// Set-up: the start-up cost every regeneration pays before its
	// per-configuration work, timed as a regeneration of one configuration
	// that is the same in every run (see setupSeed).
	for k := 0; k < fig6Setups; k++ {
		r, err := regenerate(cfg, setupSeed, 1, filepath.Join(cfg.work, "setup"), false)
		if err != nil {
			return nil, err
		}
		if r.bad != nil {
			out.problem("%v", r.bad)
		}
		out.setups = append(out.setups, r.wall.Seconds())
	}

	type done struct {
		seed   int64
		figure bool
		output []byte
	}
	var (
		t       layerTotals
		cpu     time.Duration
		maxRSS  int64
		output  float64
		drawn   int
		traced  float64 // regenerations with a telemetry snapshot
		replays []done
	)
	start := time.Now()
	for k := uint64(0); time.Since(start) < cfg.seconds; k++ {
		seed := mix(cfg.seed, k) % 1_000_000_000
		out.attempted++
		r, err := regenerate(cfg, seed, fig6Attempts, filepath.Join(cfg.work, "run"), cfg.trace)
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			continue
		}
		if r.bad != nil {
			out.problem("%v", r.bad)
		}
		out.latencies = append(out.latencies, ms(r.wall))
		output += float64(len(r.output))
		cpu += cpuTime(r.usage)
		if r.usage != nil && r.usage.Maxrss > maxRSS {
			maxRSS = r.usage.Maxrss
		}
		if r.telemetry != nil {
			t.add(r.telemetry, nil)
			traced++
		}
		if !r.noFigure {
			drawn++
		}
		// Keep a couple of each outcome for the determinism replay.
		n := 0
		for _, d := range replays {
			if d.figure == !r.noFigure {
				n++
			}
		}
		if n < fig6Replays/2 {
			replays = append(replays, done{seed, !r.noFigure, r.output})
		}
	}
	out.elapsed = time.Since(start)
	if drawn == 0 && len(out.latencies) > 0 {
		out.problem("none of %d regenerations drew a figure", len(out.latencies))
	}
	for _, d := range replays {
		r, err := regenerate(cfg, d.seed, fig6Attempts, filepath.Join(cfg.work, "replay"), false)
		if err != nil || r.noFigure == d.figure || !bytes.Equal(r.output, d.output) {
			out.problem("seed %d: regeneration is not reproducible (err %v)", d.seed, err)
		}
	}
	if cfg.trace {
		spans := spanQuantiles{p90: quantile(out.latencies, 0.90), p99: quantile(out.latencies, 0.99)}
		// experiments writes no snapshot when it draws no figure, so the
		// model and trial layers are averaged over the regenerations that
		// did; the process metrics cover all of them.
		out.layers = layerMetrics(t, traced, spans)
		n := float64(len(out.latencies))
		processMetrics(out.layers, per(ms(cpu), n), maxRSS, per(output, n))
	}
	return out, nil
}
