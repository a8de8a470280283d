package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flowrecon/internal/trialrec"
)

// goldenPcap is the committed capture fixture the ingestion goldens pin;
// the experiment-side golden replays trials on the trace extracted from
// it, with the capture pinned by SHA-256 inside the recording spec.
const goldenPcap = "../ingest/testdata/golden.pcap"

// pcapSpec is smallSpec replaying the golden capture with rates fitted
// from it (the full ingested pipeline: parse → extract → collapse →
// fit → windowed replay).
func pcapSpec(t *testing.T) RecordingSpec {
	t.Helper()
	spec := smallSpec()
	spec.Trace = &TraceSourceSpec{Kind: "pcap", Path: goldenPcap, FitRates: true}
	if err := spec.Trace.Pin(); err != nil {
		t.Fatalf("pin golden capture: %v", err)
	}
	return spec
}

// TestGoldenIngestRecording: the ingested-traffic golden fixture. The
// recording embeds the capture's SHA-256, so this pins the pcap parser,
// the flow extractor, the universe mapping, the rate fitting AND the
// trial loop in one byte comparison.
func TestGoldenIngestRecording(t *testing.T) {
	checkGolden(t, "golden_ingest.jsonl", pcapSpec(t))
}

// TestGoldenParetoRecording: the heavy-tailed golden fixture — same
// scenario on Pareto-renewal traffic with tail index 1.5. Pins the
// heavy-tailed generators' draw order.
func TestGoldenParetoRecording(t *testing.T) {
	spec := smallSpec()
	spec.Trace = &TraceSourceSpec{Kind: "pareto", Alpha: 1.5}
	checkGolden(t, "golden_pareto.jsonl", spec)
}

// TestIngestRecordingParallelismInvariant: recording the ingested-trace
// spec at parallelism 1, 4 and 8 must produce byte-identical output and
// a Diff-clean replay. This is the acceptance bar for trace replay: the
// per-trial windowing draw comes from the trial's own stream, reseeded
// from the trial's seed, so worker scheduling cannot leak into the
// recording.
func TestIngestRecordingParallelismInvariant(t *testing.T) {
	spec := pcapSpec(t)
	var serial bytes.Buffer
	if _, _, err := RecordTo(&serial, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 8} {
		var buf bytes.Buffer
		if _, _, err := RecordTo(&buf, spec, RunnerOptions{}, par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), buf.Bytes()) {
			t.Fatalf("recording at parallelism %d differs from serial (%d vs %d bytes)", par, buf.Len(), serial.Len())
		}
	}
	rec, err := trialrec.Read(bytes.NewReader(serial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if divs := trialrec.Diff(rec, replayed); len(divs) != 0 {
		t.Fatalf("replay of ingested-trace recording diverged in %d places: %s", len(divs), divs[0])
	}

	// The committed golden must match what this test just produced — the
	// parallel invariance and the byte pin are claims about the same run.
	want, err := os.ReadFile(filepath.Join("testdata", "golden_ingest.jsonl"))
	if err == nil && !bytes.Equal(want, serial.Bytes()) {
		t.Fatal("parallel-invariance run differs from the committed golden_ingest.jsonl")
	}
}

// TestRunnerReplaysBuildConfigCapture: a spec that fits its rates from a
// capture reads the file once. BuildConfig ingests it and Runner replays
// that ingest, so a run whose capture is gone after BuildConfig records
// the same bytes as RecordTo with the file in place.
func TestRunnerReplaysBuildConfigCapture(t *testing.T) {
	data, err := os.ReadFile(goldenPcap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.Trace = &TraceSourceSpec{Kind: "pcap", Path: path, FitRates: true}
	if err := spec.Trace.Pin(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, _, err := RecordTo(&want, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}

	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := spec.Runner(nc, attackers, RunnerOptions{Record: true})
	if err != nil {
		t.Fatalf("Runner read the capture again: %v", err)
	}
	hdr, err := spec.Header(runner)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rec, err := trialrec.NewRecorder(&got, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunTrials(spec.Trials, spec.TrialSeed, 1, RecordTrials(rec)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("recording replayed from BuildConfig's ingest differs from RecordTo's (%d vs %d bytes)", got.Len(), want.Len())
	}

	// A spec whose trace differs from the one the configuration was
	// built for still resolves its own source.
	other := spec
	other.Trace = &TraceSourceSpec{Kind: "pareto", Alpha: 1.5}
	if _, err := other.Runner(nc, attackers, RunnerOptions{}); err != nil {
		t.Fatal(err)
	}
	moved := spec
	moved.Trace = &TraceSourceSpec{Kind: "pcap", Path: path, FitRates: true, SHA256: spec.Trace.SHA256, IdleTimeout: 5}
	if _, err := moved.Runner(nc, attackers, RunnerOptions{}); err == nil {
		t.Fatal("Runner replayed a capture ingested for a different trace spec")
	}
}
