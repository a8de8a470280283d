package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"flowrecon/internal/experiment"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

func TestRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	if err := run([]string{"-small", "-seed", "3", "-trials", "20", "-details"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRecordComposesWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	dir := t.TempDir()
	recPath := filepath.Join(dir, "run.jsonl")
	telPath := filepath.Join(dir, "tel.json")

	// Both sinks on the same path is rejected before any work happens.
	if err := run([]string{"-small", "-record", recPath, "-telemetry-out", recPath}); err == nil {
		t.Fatal("same path for -record and -telemetry-out accepted")
	}

	if err := run([]string{"-small", "-seed", "3", "-trials", "12", "-probes", "2",
		"-record", recPath, "-telemetry-out", telPath}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(telPath); err != nil || fi.Size() == 0 {
		t.Fatalf("telemetry sink not flushed: %v", err)
	}
	rec, err := trialrec.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Trials) != 12 || len(rec.Header.Attackers) != 4 {
		t.Fatalf("recording shape: %d trials, %d attackers", len(rec.Trials), len(rec.Header.Attackers))
	}
	// The recording is self-describing: replaying its spec reproduces it.
	fresh, _, err := experiment.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if divs := trialrec.Diff(rec, fresh); len(divs) != 0 {
		t.Fatalf("CLI recording does not replay: first divergence %s", divs[0])
	}
}

func TestRunWorkloadAndTraceFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	// -trace and -workload are mutually exclusive.
	if err := run([]string{"-small", "-trace", "x.pcap", "-workload", "pareto"}); err == nil {
		t.Fatal("-trace with -workload accepted")
	}
	if err := run([]string{"-small", "-seed", "3", "-trials", "15", "-workload", "pareto", "-alpha", "1.3"}); err != nil {
		t.Fatal(err)
	}

	// Replaying the golden capture produces a recording that replays
	// byte-for-byte: the spec carries the capture's SHA-256 pin.
	recPath := filepath.Join(t.TempDir(), "run.jsonl")
	golden := filepath.Join("..", "..", "internal", "ingest", "testdata", "golden.pcap")
	if err := run([]string{"-small", "-seed", "3", "-trials", "15",
		"-trace", golden, "-record", recPath}); err != nil {
		t.Fatal(err)
	}
	rec, err := trialrec.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := experiment.Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if divs := trialrec.Diff(rec, fresh); len(divs) != 0 {
		t.Fatalf("trace-replay recording does not replay: first divergence %s", divs[0])
	}
}

func TestRunMultiProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	if err := run([]string{"-small", "-seed", "3", "-trials", "10", "-probes", "2", "-sweep"}); err != nil {
		t.Fatal(err)
	}
}

// TestPerTrialForcesSerial: cumulative per-trial snapshots are
// order-sensitive, so -telemetry-out runs the trials serially whatever
// -parallelism asks for: one record per trial, in trial order, each
// counting exactly the trials before it and itself.
func TestPerTrialForcesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	const trials = 6
	telPath := filepath.Join(t.TempDir(), "tel.json")
	if err := run([]string{"-small", "-seed", "3", "-trials", strconv.Itoa(trials),
		"-parallelism", "8", "-telemetry-out", telPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(telPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Final  telemetry.Snapshot       `json:"final"`
		Trials []experiment.TrialRecord `json:"trials"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trials) != trials {
		t.Fatalf("got %d per-trial records, want %d", len(doc.Trials), trials)
	}
	for i, r := range doc.Trials {
		if r.Trial != i {
			t.Fatalf("record %d has trial index %d", i, r.Trial)
		}
		if n := r.Telemetry.Counters["experiment_trials_total"]; n != int64(i+1) {
			t.Fatalf("record %d counts %d trials, want %d", i, n, i+1)
		}
	}
	if _, ok := doc.Final.Gauges["experiment_trial_workers"]; ok {
		t.Fatal("per-trial snapshots ran on a worker pool")
	}
}
