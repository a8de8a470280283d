package experiment

import (
	"bytes"
	"testing"

	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// chaosSpec is smallSpec with a lossy, jittery channel: every probe has
// a 25% chance of vanishing and delivered probes see ~1ms of added
// delay jitter. Loss is set high so a handful of trials is all but
// guaranteed to exercise the lost-probe paths.
func chaosSpec() RecordingSpec {
	spec := smallSpec()
	spec.Faults = &faults.Profile{Seed: 42, LossProb: 0.25, JitterMeanMs: 1}
	return spec
}

// TestFaultsDisabledIsByteIdentical: a fault profile with a seed but no
// active knob must leave the run untouched — byte-for-byte the same
// recording as no profile at all. This is the guarantee that keeps
// pre-fault recordings replayable: disabled means free, not "free-ish".
func TestFaultsDisabledIsByteIdentical(t *testing.T) {
	spec := smallSpec()
	var clean, disabled bytes.Buffer
	if _, _, err := RecordTo(&clean, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecordTo(&disabled, spec, RunnerOptions{Faults: faults.Profile{Seed: 99}}, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.Bytes(), disabled.Bytes()) {
		t.Fatal("zero-knob fault profile perturbed the recording bytes")
	}
}

// TestChaosRecordingDeterminism: the chaos acceptance check — a lossy,
// jittery run completes every trial, records visibly lost probes, and is
// byte-reproducible: recording it twice gives identical bytes, and
// Replay from the file alone diverges nowhere.
func TestChaosRecordingDeterminism(t *testing.T) {
	spec := chaosSpec()
	var a, b bytes.Buffer
	resA, _, err := RecordTo(&a, spec, RunnerOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecordTo(&b, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chaos run is not byte-reproducible from its seeds")
	}

	recA, err := trialrec.Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recA.Trials) != spec.Trials {
		t.Fatalf("chaos run completed %d/%d trials", len(recA.Trials), spec.Trials)
	}

	// The loss must be visible: Lost masks in the recording, and for the
	// model attacker a Lost belief step that leaves the posterior where
	// it was.
	lostProbes := 0
	for _, tr := range recA.Trials {
		for _, at := range tr.Attackers {
			for p, l := range at.Lost {
				if !l {
					continue
				}
				lostProbes++
				if len(at.Belief) > p {
					step := at.Belief[p]
					if !step.Lost {
						t.Fatalf("trial %d %s probe %d lost but belief step not marked: %+v", tr.Trial, at.Name, p, step)
					}
					if step.Prior != step.Posterior {
						t.Fatalf("lost probe moved the posterior: %+v", step)
					}
				}
			}
		}
	}
	if lostProbes == 0 {
		t.Fatal("25% loss produced no lost probes — injection not reaching the trial loop")
	}

	// Replay from the recording alone: the spec carries the fault
	// profile, so the chaos reproduces fault for fault.
	fresh, resR, err := Replay(recA)
	if err != nil {
		t.Fatal(err)
	}
	if ds := trialrec.Diff(recA, fresh); len(ds) != 0 {
		t.Fatalf("chaos replay diverged: %v", ds[0])
	}
	for i := range resA {
		if resA[i] != resR[i] {
			t.Fatalf("chaos replay confusion matrix differs: %+v vs %+v", resA[i], resR[i])
		}
	}
}

// TestChaosParallelMatchesSerial: fault streams derive from the trial
// index, not the execution schedule, so a parallel chaos run scores
// identically to the serial one.
func TestChaosParallelMatchesSerial(t *testing.T) {
	spec := chaosSpec()
	run := func(parallelism int) []AttackerResult {
		nc, err := spec.BuildConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		attackers, err := StandardAttackers(nc, spec.Probes)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := spec.Runner(nc, attackers, RunnerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunTrials(spec.Trials, spec.TrialSeed, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := run(1), run(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("parallel chaos diverged from serial: %+v vs %+v", serial[i], par[i])
		}
	}
}

// TestChaosTelemetry: a chaos run surfaces its faults in the registry —
// lost probes in the experiment series and injections in the faults
// series.
func TestChaosTelemetry(t *testing.T) {
	spec := chaosSpec()
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	if _, _, err := RecordTo(&buf, spec, RunnerOptions{Registry: reg}, 1); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters[`experiment_probes_total{result="lost"}`] == 0 {
		t.Fatal("no lost probes in experiment telemetry")
	}
	if snap.Counters[`faults_loss_total{layer="experiment"}`] == 0 {
		t.Fatal("no loss recorded in faults telemetry")
	}
}

// TestChaosSpecRoundTrip: the fault profile travels in the recording
// header and comes back out of SpecFromRecording intact.
func TestChaosSpecRoundTrip(t *testing.T) {
	spec := chaosSpec()
	var buf bytes.Buffer
	if _, _, err := RecordTo(&buf, spec, RunnerOptions{}, 1); err != nil {
		t.Fatal(err)
	}
	rec, err := trialrec.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SpecFromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || *got.Faults != *spec.Faults {
		t.Fatalf("fault profile did not round-trip: %+v", got.Faults)
	}
}
