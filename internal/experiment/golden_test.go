package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flowrecon/internal/faults"
	"flowrecon/internal/trialrec"
)

// The golden recordings pin cross-PR determinism: the committed JSONL
// fixtures were produced by RecordTo at a known commit, and every later
// revision must regenerate them byte for byte from the spec embedded in
// their headers. A diff here means the seeded random draw order, the
// trial semantics, or the serialization changed — any of which silently
// invalidates previously recorded experiments. If the change is
// intentional, regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiment/ -run TestGolden
//
// and say so in the commit message.
func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name string, spec RecordingSpec) {
	t.Helper()
	path := goldenPath(name)
	var fresh bytes.Buffer
	if _, _, err := RecordTo(&fresh, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, fresh.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}

	// 1. Byte-level pin: the current code regenerates the fixture exactly.
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Errorf("recording bytes diverged from %s (%d vs %d bytes); "+
			"if intentional, regenerate with UPDATE_GOLDEN=1 and document why", path, fresh.Len(), len(want))
	}

	// 2. Semantic pin: Replay from the fixture's own embedded spec, then
	// Diff — zero divergences, probe for probe.
	rec, err := trialrec.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, results, err := Replay(rec)
	if err != nil {
		t.Fatal(err)
	}
	if divs := trialrec.Diff(rec, replayed); len(divs) != 0 {
		for i, d := range divs {
			if i == 10 {
				t.Errorf("... and %d more", len(divs)-10)
				break
			}
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("replay diverged from golden recording %s in %d places", path, len(divs))
	}
	if len(results) == 0 {
		t.Fatal("replay returned no attacker results")
	}
	for _, r := range results {
		if r.Trials != spec.Trials {
			t.Fatalf("attacker %s replayed %d trials, want %d", r.Name, r.Trials, spec.Trials)
		}
	}
}

// TestGoldenRecording: the fault-free golden fixture.
func TestGoldenRecording(t *testing.T) {
	checkGolden(t, "golden_small.jsonl", smallSpec())
}

// TestGoldenChaosRecording: the chaos golden fixture — same scenario with
// 2% probe loss and 1 ms mean jitter injected from its own seeded stream.
// This pins not just the trial semantics but the fault draw order: a
// refactor that changes when the loss coin is flipped shows up here even
// if every fault-free path is untouched.
func TestGoldenChaosRecording(t *testing.T) {
	spec := smallSpec()
	spec.Faults = &faults.Profile{Seed: 42, LossProb: 0.02, JitterMeanMs: 1}
	checkGolden(t, "golden_chaos.jsonl", spec)
}
