package experiment

import (
	"bytes"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

func smallSpec() RecordingSpec {
	return RecordingSpec{
		Params:      SmallParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      6,
		Probes:      2,
		Measurement: DefaultMeasurement(),
	}
}

func TestRecordReplayDeterminism(t *testing.T) {
	spec := smallSpec()
	var a, b bytes.Buffer
	resA, _, err := RecordTo(&a, spec, RunnerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := RecordTo(&b, spec, RunnerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same spec → byte-identical results and divergence-free recordings.
	for i := range resA {
		if resA[i] != resB[i] {
			t.Fatalf("results differ: %+v vs %+v", resA[i], resB[i])
		}
	}
	recA, err := trialrec.Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recB, err := trialrec.Read(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ds := trialrec.Diff(recA, recB); len(ds) != 0 {
		t.Fatalf("re-recording diverged: %v", ds[0])
	}

	// Replay from the recording alone reproduces it probe for probe.
	fresh, resR, err := Replay(recA)
	if err != nil {
		t.Fatal(err)
	}
	if ds := trialrec.Diff(recA, fresh); len(ds) != 0 {
		t.Fatalf("replay diverged: %v", ds[0])
	}
	for i := range resA {
		if resA[i] != resR[i] {
			t.Fatalf("replay confusion matrix differs: %+v vs %+v", resA[i], resR[i])
		}
	}
}

func TestRecordingContents(t *testing.T) {
	spec := smallSpec()
	var buf bytes.Buffer
	results, nc, err := RecordTo(&buf, spec, RunnerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trialrec.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Trials) != spec.Trials {
		t.Fatalf("recorded %d trials, want %d", len(rec.Trials), spec.Trials)
	}
	if len(rec.Header.Attackers) != 4 || rec.Header.Attackers[2] != RestrictedAttackerName {
		t.Fatalf("attacker roster = %v", rec.Header.Attackers)
	}
	if got, err := SpecFromRecording(rec); err != nil || got != spec {
		t.Fatalf("spec round trip: %+v, %v", got, err)
	}
	for _, tr := range rec.Trials {
		if len(tr.Attackers) != 4 {
			t.Fatalf("trial %d has %d attacker records", tr.Trial, len(tr.Attackers))
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("trial %d carries no spans", tr.Trial)
		}
		// The trial span tree has one root; probes hang beneath attackers.
		forest := telemetry.BuildSpanForest(tr.Spans)
		if len(forest) != 1 || forest[0].Span.Name != "trial" {
			t.Fatalf("trial %d span forest malformed: %d roots", tr.Trial, len(forest))
		}
		model, ok := tr.FindAttacker("model(m=2)")
		if !ok {
			t.Fatalf("trial %d lacks the model attacker", tr.Trial)
		}
		if len(model.Probes) != len(model.Outcomes) || len(model.Probes) == 0 {
			t.Fatalf("trial %d model probes/outcomes mismatched: %v %v", tr.Trial, model.Probes, model.Outcomes)
		}
		// Model attackers carry a belief step per probe; its Hit field is
		// the recorded outcome.
		if len(model.Belief) != len(model.Probes) {
			t.Fatalf("trial %d belief steps %d for %d probes", tr.Trial, len(model.Belief), len(model.Probes))
		}
		for i, step := range model.Belief {
			if step.Probe != model.Probes[i] || step.Hit != model.Outcomes[i] {
				t.Fatalf("trial %d belief step %d inconsistent: %+v", tr.Trial, i, step)
			}
			if step.Posterior < 0 || step.Posterior > 1 {
				t.Fatalf("posterior out of range: %v", step.Posterior)
			}
		}
		// The naive attacker has no model, hence no belief trajectory.
		naive, ok := tr.FindAttacker("naive")
		if !ok || len(naive.Belief) != 0 {
			t.Fatalf("trial %d naive record: %+v", tr.Trial, naive)
		}
		if len(naive.Probes) != 1 || naive.Probes[0] != nc.Target {
			t.Fatalf("naive probes = %v, want target %d", naive.Probes, nc.Target)
		}
	}
	// Results align with the header roster.
	for i, r := range results {
		if r.Name != rec.Header.Attackers[i] {
			t.Fatalf("result %d name %q, header %q", i, r.Name, rec.Header.Attackers[i])
		}
		if r.Trials != spec.Trials {
			t.Fatalf("%s scored %d trials", r.Name, r.Trials)
		}
	}
}

// TestRecorderDoesNotPerturbOutcomes: the same seeds with and without a
// recorder produce identical confusion matrices — the observers draw
// nothing from the RNG streams.
func TestRecorderDoesNotPerturbOutcomes(t *testing.T) {
	spec := smallSpec()
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []core.Attacker {
		as, err := StandardAttackers(nc, spec.Probes)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	plain, err := NewTrialRunner(nc, mk(), spec.Measurement, RunnerOptions{}).RunTrials(spec.Trials, spec.TrialSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	recorded, _, err := RecordTo(&buf, spec, RunnerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != recorded[i] {
			t.Fatalf("recording perturbed outcomes: %+v vs %+v", plain[i], recorded[i])
		}
	}
}

func TestRecordingSpecValidate(t *testing.T) {
	spec := smallSpec()
	spec.Trials = 0
	if err := spec.Validate(); err == nil {
		t.Fatal("zero trials should fail validation")
	}
	spec = smallSpec()
	spec.Probes = 0
	if err := spec.Validate(); err == nil {
		t.Fatal("zero probes should fail validation")
	}
	spec = smallSpec()
	spec.Params.Delta = -1
	if _, err := spec.BuildConfig(nil); err == nil {
		t.Fatal("bad params should fail BuildConfig")
	}
}

func TestReplayRejectsSpeclessRecording(t *testing.T) {
	rec := &trialrec.Recording{}
	if _, _, err := Replay(rec); err == nil {
		t.Fatal("recording without a spec should not replay")
	}
}
