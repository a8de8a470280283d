package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowrecon/internal/experiment"
	"flowrecon/internal/trialrec"
)

// recordFixture writes a small deterministic recording to dir and returns
// its path.
func recordFixture(t *testing.T, dir string) string {
	t.Helper()
	spec := experiment.RecordingSpec{
		Params:      experiment.SmallParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      6,
		Probes:      2,
		Measurement: experiment.DefaultMeasurement(),
	}
	path := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := experiment.RecordTo(f, spec, experiment.RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInspectSummaryGainsSpans(t *testing.T) {
	dir := t.TempDir()
	path := recordFixture(t, dir)

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"recording:", "naive", "model(m=2)", experiment.RestrictedAttackerName, "accuracy"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary lacks %q:\n%s", want, s)
		}
	}

	out.Reset()
	if err := run([]string{"-trial", "0", "-gains", path}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "posterior") || !strings.Contains(s, "gain(b)") {
		t.Fatalf("gain table missing columns:\n%s", s)
	}
	if !strings.Contains(s, "model(m=2)") {
		t.Fatalf("gain table lacks the model attacker:\n%s", s)
	}

	out.Reset()
	if err := run([]string{"-trial", "0", "-spans", path}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "trial [") || !strings.Contains(s, "attacker [") {
		t.Fatalf("span tree lacks trial/attacker spans:\n%s", s)
	}
	if !strings.Contains(s, "probe [") || !strings.Contains(s, "decision [") {
		t.Fatalf("span tree lacks probe/decision spans:\n%s", s)
	}

	// Unknown trial and unknown attacker are errors.
	if err := run([]string{"-trial", "99", "-gains", path}, &out); err == nil {
		t.Fatal("trial 99 accepted")
	}
	if err := run([]string{"-gains", "-attacker", "nope", path}, &out); err == nil {
		t.Fatal("unknown attacker accepted")
	}
}

func TestInspectEntropySVG(t *testing.T) {
	dir := t.TempDir()
	path := recordFixture(t, dir)
	svg := filepath.Join(dir, "conv.svg")
	var out bytes.Buffer
	if err := run([]string{"-entropy", svg, path}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<svg") || !strings.Contains(string(b), "model(m=2)") {
		t.Fatalf("svg malformed (%d bytes)", len(b))
	}
}

func TestInspectDiffAndReplay(t *testing.T) {
	dir := t.TempDir()
	path := recordFixture(t, dir)

	// Identical file diffs clean.
	var out bytes.Buffer
	if err := run([]string{"-diff", path, path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("self-diff not clean:\n%s", out.String())
	}

	// Replay reproduces the recording bit-for-bit.
	out.Reset()
	if err := run([]string{"-replay", path}, &out); err != nil {
		t.Fatalf("replay diverged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("replay not clean:\n%s", out.String())
	}

	// A flipped verdict is caught and located.
	rec, err := trialrec.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.Trials[2].Attackers[1].Verdict = !rec.Trials[2].Attackers[1].Verdict
	mutated := filepath.Join(dir, "mutated.jsonl")
	writeRecording(t, mutated, rec)
	out.Reset()
	err = run([]string{"-diff", mutated, path}, &out)
	if err == nil {
		t.Fatalf("mutated diff passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "trial 2") || !strings.Contains(out.String(), "verdict") {
		t.Fatalf("divergence not located:\n%s", out.String())
	}
}

func writeRecording(t *testing.T, path string, rec *trialrec.Recording) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec.Header); err != nil {
		t.Fatal(err)
	}
	for _, tr := range rec.Trials {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInspectArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"/nonexistent/recording.jsonl"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}
