package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"flowrecon/internal/faults"
	"flowrecon/internal/telemetry"
)

// appendEvents is the consumer that appends each trial's wide events to
// log, in trial order.
func appendEvents(log *telemetry.EventLog) func(TrialResult) error {
	return func(res TrialResult) error {
		log.Append(res.Events)
		return nil
	}
}

// eventRun executes one trial run with the wide-event log attached
// (deterministic clock) and returns its JSONL serialization.
func eventRun(t *testing.T, spec RecordingSpec, parallelism int) []byte {
	t.Helper()
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewEventLog(0)
	events.SetClock(nil)
	runner, err := spec.Runner(nc, attackers, RunnerOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunTrials(spec.Trials, spec.TrialSeed, parallelism, appendEvents(events)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := events.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventLogByteIdenticalAcrossParallelism is the wide-event analogue
// of the recording determinism guarantee: with wall stamping off, the
// event stream (probe decisions, fault drops, trial verdicts) must be
// byte-for-byte identical no matter how many workers ran the trials.
func TestEventLogByteIdenticalAcrossParallelism(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      18,
		Probes:      2,
		Measurement: DefaultMeasurement(),
	}
	serial := eventRun(t, spec, 1)
	if len(serial) == 0 {
		t.Fatal("serial run emitted no events")
	}
	for _, workers := range []int{2, 5} {
		par := eventRun(t, spec, workers)
		if !bytes.Equal(serial, par) {
			t.Fatalf("parallelism %d: event streams diverge\n%s", workers, firstDiffLines(serial, par))
		}
	}
}

// TestEventLogByteIdenticalUnderFaults repeats the identity check with
// probe faults armed, so fault.drop events interleave with probes.
func TestEventLogByteIdenticalUnderFaults(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  7,
		TrialSeed:   23,
		Trials:      14,
		Probes:      2,
		Measurement: DefaultMeasurement(),
		Faults:      &faults.Profile{Seed: 5, LossProb: 0.2, JitterMeanMs: 0.3},
	}
	serial := eventRun(t, spec, 1)
	par := eventRun(t, spec, 4)
	if !bytes.Equal(serial, par) {
		t.Fatalf("fault event streams diverge\n%s", firstDiffLines(serial, par))
	}
	if !bytes.Contains(serial, []byte(`"fault.drop"`)) {
		t.Fatal("fault profile injected no fault.drop events; test proves nothing")
	}
}

// TestEventStreamContent spot-checks the wide events one serial run
// emits: per-probe decisions with trace + truth + classification, and
// one verdict per attacker per trial.
func TestEventStreamContent(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      4,
		Probes:      1,
		Measurement: DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewEventLog(0)
	events.SetClock(nil)
	runner := NewTrialRunner(nc, attackers, spec.Measurement, RunnerOptions{Events: true})
	if _, err := runner.RunTrials(spec.Trials, spec.TrialSeed, 1, appendEvents(events)); err != nil {
		t.Fatal(err)
	}

	verdictsPerTrial := map[int]int{}
	for _, e := range events.Events() {
		switch e.Kind {
		case "probe":
			if e.Attacker == "" || e.Trial < 0 || e.Flow < 0 {
				t.Fatalf("underspecified probe event: %+v", e)
			}
			if e.Truth != "hit" && e.Truth != "miss" {
				t.Fatalf("probe truth %q: %+v", e.Truth, e)
			}
			if e.Outcome != "hit" && e.Outcome != "miss" {
				t.Fatalf("probe outcome %q: %+v", e.Outcome, e)
			}
		case "trial.verdict":
			verdictsPerTrial[e.Trial]++
			if e.Verdict == "" || e.Truth == "" || (e.Outcome != "correct" && e.Outcome != "wrong") {
				t.Fatalf("underspecified verdict event: %+v", e)
			}
		}
	}
	for trial := 0; trial < spec.Trials; trial++ {
		if verdictsPerTrial[trial] != len(attackers) {
			t.Fatalf("trial %d has %d verdict events, want %d",
				trial, verdictsPerTrial[trial], len(attackers))
		}
	}
}

// firstDiffLines renders the first diverging line pair of two JSONL
// buffers, keeping failure output readable.
func firstDiffLines(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("streams differ in length: %d vs %d lines", len(al), len(bl))
}
