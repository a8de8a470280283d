package experiment

import "flowrecon/internal/telemetry"

// TrialRecord is one per-trial telemetry sample: the cumulative registry
// snapshot taken at the end of the trial, Prometheus-scrape style, plus
// the trial's ground truth. Successive records can be differenced to
// recover per-trial deltas.
type TrialRecord struct {
	Trial     int                `json:"trial"`
	Truth     bool               `json:"truth"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// trialMetrics are the experiment layer's instruments, resolved once per
// run. The zero value (nil registry) disables everything.
type trialMetrics struct {
	trials     *telemetry.Counter
	probeHits  *telemetry.Counter
	probeMiss  *telemetry.Counter
	probeLost  *telemetry.Counter
	hitMs      *telemetry.Histogram
	missMs     *telemetry.Histogram
	truthTrue  *telemetry.Counter
	truthFalse *telemetry.Counter
}

// newTrialMetrics resolves the experiment instruments from reg (nil-safe).
func newTrialMetrics(reg *telemetry.Registry) trialMetrics {
	return trialMetrics{
		trials:     reg.Counter("experiment_trials_total"),
		probeHits:  reg.Counter("experiment_probes_total", "result", "hit"),
		probeMiss:  reg.Counter("experiment_probes_total", "result", "miss"),
		probeLost:  reg.Counter("experiment_probes_total", "result", "lost"),
		hitMs:      reg.Histogram("experiment_probe_delay_ms", telemetry.MillisecondBuckets(), "result", "hit"),
		missMs:     reg.Histogram("experiment_probe_delay_ms", telemetry.MillisecondBuckets(), "result", "miss"),
		truthTrue:  reg.Counter("experiment_truth_total", "present", "true"),
		truthFalse: reg.Counter("experiment_truth_total", "present", "false"),
	}
}

// verdictCounters resolves the per-attacker outcome counters (labelled by
// attacker name and confusion-matrix cell).
func verdictCounters(reg *telemetry.Registry, name string) [4]*telemetry.Counter {
	return [4]*telemetry.Counter{
		reg.Counter("experiment_verdicts_total", "attacker", name, "outcome", "true_pos"),
		reg.Counter("experiment_verdicts_total", "attacker", name, "outcome", "true_neg"),
		reg.Counter("experiment_verdicts_total", "attacker", name, "outcome", "false_pos"),
		reg.Counter("experiment_verdicts_total", "attacker", name, "outcome", "false_neg"),
	}
}

// countVerdict increments the confusion-matrix counter for one verdict.
func countVerdict(vc [4]*telemetry.Counter, verdict, truth bool) {
	switch {
	case verdict && truth:
		vc[0].Inc()
	case !verdict && !truth:
		vc[1].Inc()
	case verdict && !truth:
		vc[2].Inc()
	default:
		vc[3].Inc()
	}
}

// observeProbe records one probe's ground truth and drawn delay.
func (tm *trialMetrics) observeProbe(hit bool, ms float64) {
	if tm == nil {
		return
	}
	if hit {
		tm.probeHits.Inc()
		tm.hitMs.Observe(ms)
	} else {
		tm.probeMiss.Inc()
		tm.missMs.Observe(ms)
	}
}

// observeProbeLost counts a probe that never produced an observation.
func (tm *trialMetrics) observeProbeLost() {
	if tm == nil {
		return
	}
	tm.probeLost.Inc()
}
