package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowrecon/internal/experiment"
	"flowrecon/internal/telemetry"
)

func TestRunRequiresSelection(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no-experiment invocation accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunLatencyOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the latency experiment")
	}
	if err := run([]string{"-latency", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small figure-6 sweep")
	}
	dir := t.TempDir()
	if err := run([]string{"-fig6", "-scale", "small", "-configs", "2", "-trials", "20", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

// TestRunFig6Profiles checks the whole-run profiling flags: a Figure 6
// regeneration with -cpuprofile and -memprofile leaves both profiles
// behind, non-empty.
func TestRunFig6Profiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small figure-6 sweep")
	}
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	if err := run([]string{"-fig6", "-scale", "small", "-configs", "1", "-trials", "10", "-cpuprofile", cpu, "-memprofile", heap}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (%v)", p, err)
		}
	}
}

// TestRunTelemetryUSumCounters checks that -telemetry-out carries the
// u-sum layer counters of the model builds.
func TestRunTelemetryUSumCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small figure-6 sweep")
	}
	out := filepath.Join(t.TempDir(), "tel.json")
	if err := run([]string{"-fig6", "-scale", "small", "-configs", "1", "-trials", "10", "-seed", "23", "-telemetry-out", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	states, steps := snap.Counters[`usum_states_total{method="exact"}`], snap.Counters["usum_sweep_steps_total"]
	if states <= 0 || steps < states {
		t.Fatalf("telemetry snapshot lacks u-sum work counters (%d states, %d sweep steps): %v", states, steps, snap.Counters)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "usum_exact_leaves") || strings.Contains(name, `method="mc"`) {
			t.Fatalf("telemetry snapshot still carries %s", name)
		}
	}
}

func TestRunTelemetrySequenceSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload comparison")
	}
	out := filepath.Join(t.TempDir(), "tel.json")
	if err := run([]string{"-workload", "pareto", "-scale", "small", "-trials", "10", "-seed", "5", "-telemetry-out", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if h, ok := snap.Histograms["sequence_search_ms"]; !ok || h.Summary.N < 1 {
		t.Fatalf("telemetry snapshot lacks sequence_search_ms observations: %v", snap.Histograms)
	}
}

func TestRunWorkloadAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload comparison")
	}
	if err := run([]string{"-workload", "pareto", "-alpha", "1.3", "-scale", "small", "-trials", "30", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "internal", "ingest", "testdata", "golden.pcap")
	if err := run([]string{"-trace", golden, "-scale", "small", "-trials", "30", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVNoDir(t *testing.T) {
	if err := writeCSV("", "x.csv", []experiment.ConfigOutcome{}); err != nil {
		t.Fatal(err)
	}
}
