package telemetry

import (
	"encoding/json"
	"math"
	"strings"
)

// LiveUpdate is one frame of the /debug/live stream: the derived
// progress view of a running attack (trials done, probe throughput,
// running accuracy, fault pressure) plus the raw counter deltas of the
// window for anything the derived view does not name. Every float is
// guaranteed finite — degenerate windows (no elapsed time, no samples,
// a single sample) encode as zeros, never NaN or Inf.
type LiveUpdate struct {
	// Seq numbers the frames of one stream, starting at 1.
	Seq int64 `json:"seq"`
	// ElapsedSec is the wall-clock width of this delta window.
	ElapsedSec float64 `json:"elapsedSec"`

	// Trials is the cumulative experiment_trials_total; TrialsDelta is
	// this window's increment; TrialsPerSec the window rate.
	Trials       int64   `json:"trials"`
	TrialsDelta  int64   `json:"trialsDelta"`
	TrialsPerSec float64 `json:"trialsPerSec"`

	// Probes aggregates experiment probe counters plus switch injects
	// (whichever the process emits); ProbesPerSec is the window rate.
	Probes       int64   `json:"probes"`
	ProbesDelta  int64   `json:"probesDelta"`
	ProbesPerSec float64 `json:"probesPerSec"`

	// Accuracy is the running (TP+TN)/total over every attacker's
	// verdict counters; AccuracyByAttacker splits it per strategy. Both
	// are 0 before the first verdict.
	Accuracy           float64            `json:"accuracy"`
	AccuracyByAttacker map[string]float64 `json:"accuracyByAttacker,omitempty"`

	// DetectSources is the detect_sources_tracked gauge (sources the
	// streaming detector follows); DetectFlagged the cumulative
	// detect_flagged_total across reasons, with this window's increment
	// in DetectFlaggedDelta. All zero when no detector runs.
	DetectSources      int64 `json:"detectSources,omitempty"`
	DetectFlagged      int64 `json:"detectFlagged,omitempty"`
	DetectFlaggedDelta int64 `json:"detectFlaggedDelta,omitempty"`

	// FleetShards is the netsim_fleet_shards gauge (0 when no sharded
	// fleet runs); FleetEvents/FleetWindows are the cumulative simulator
	// event and lookahead-window counts with this window's event rate;
	// FleetCrossings counts cross-shard packet handoffs; FleetOccupancy
	// sums the per-shard flow-table occupancy gauges.
	FleetShards       int64   `json:"fleetShards,omitempty"`
	FleetEvents       int64   `json:"fleetEvents,omitempty"`
	FleetEventsPerSec float64 `json:"fleetEventsPerSec,omitempty"`
	FleetWindows      int64   `json:"fleetWindows,omitempty"`
	FleetCrossings    int64   `json:"fleetCrossings,omitempty"`
	FleetOccupancy    int64   `json:"fleetOccupancy,omitempty"`

	// SessionsActive / SessionsQueued are flowrecond's admission gauges;
	// Sessions is the cumulative opened-session count with this window's
	// increment. ModelStoreModels / ModelStoreBytes track the shared model
	// store's residency and ModelStoreHitPct its cumulative lookup hit
	// ratio (0–100). All zero outside the daemon.
	SessionsActive   int64   `json:"sessionsActive,omitempty"`
	SessionsQueued   int64   `json:"sessionsQueued,omitempty"`
	Sessions         int64   `json:"sessions,omitempty"`
	SessionsDelta    int64   `json:"sessionsDelta,omitempty"`
	ModelStoreModels int64   `json:"modelStoreModels,omitempty"`
	ModelStoreBytes  int64   `json:"modelStoreBytes,omitempty"`
	ModelStoreHitPct float64 `json:"modelStoreHitPct,omitempty"`

	// Faults is the cumulative faults_injected_total across layers;
	// Reconnects the switch's control-channel re-establishments; Lost
	// the probes that produced no observation.
	Faults      int64 `json:"faults"`
	FaultsDelta int64 `json:"faultsDelta"`
	Reconnects  int64 `json:"reconnects"`
	Lost        int64 `json:"lost"`

	// Counters carries every counter whose value changed inside the
	// window (series → delta), so dashboards can follow any metric
	// without a schema change. Gauges carries current gauge values.
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// sanitizeFloat clamps non-finite values to 0 so no NaN/Inf ever reaches
// an encoder (JSON rejects them; Prometheus scrapers choke on them).
func sanitizeFloat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// rate divides a count by a window, returning 0 for empty or degenerate
// (zero/negative elapsed) windows instead of Inf/NaN.
func rate(delta int64, elapsed float64) float64 {
	if elapsed <= 0 || delta == 0 {
		return 0
	}
	return sanitizeFloat(float64(delta) / elapsed)
}

// seriesLabel extracts one label's value from a formatted series key
// (see Series), "" when absent.
func seriesLabel(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// sumCounters sums every counter series with the given name prefix whose
// key also contains each of the needles.
func sumCounters(counters map[string]int64, prefix string, needles ...string) int64 {
	var total int64
series:
	for k, v := range counters {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, n := range needles {
			if !strings.Contains(k, n) {
				continue series
			}
		}
		total += v
	}
	return total
}

// ComputeLiveUpdate derives one stream frame from two registry snapshots
// taken elapsed seconds apart. It is a pure function, so the SSE handler
// and its tests share the exact encoding; prev may be the zero Snapshot
// (the first frame reports cumulative values as the delta).
func ComputeLiveUpdate(prev, cur Snapshot, elapsed float64) LiveUpdate {
	u := LiveUpdate{ElapsedSec: sanitizeFloat(elapsed)}

	u.Trials = cur.Counters["experiment_trials_total"]
	u.TrialsDelta = u.Trials - prev.Counters["experiment_trials_total"]
	u.TrialsPerSec = rate(u.TrialsDelta, elapsed)

	probes := func(c map[string]int64) int64 {
		return sumCounters(c, "experiment_probes_total") + c["switch_injects_total"]
	}
	u.Probes = probes(cur.Counters)
	u.ProbesDelta = u.Probes - probes(prev.Counters)
	u.ProbesPerSec = rate(u.ProbesDelta, elapsed)

	var correct, total int64
	for k, v := range cur.Counters {
		if !strings.HasPrefix(k, "experiment_verdicts_total{") {
			continue
		}
		total += v
		outcome := seriesLabel(k, "outcome")
		if outcome == "true_pos" || outcome == "true_neg" {
			correct += v
		}
		name := seriesLabel(k, "attacker")
		if name == "" {
			continue
		}
		if u.AccuracyByAttacker == nil {
			u.AccuracyByAttacker = make(map[string]float64)
		}
		// First pass accumulates totals; the ratio is fixed up below.
		u.AccuracyByAttacker[name] += float64(v)
	}
	if total > 0 {
		u.Accuracy = sanitizeFloat(float64(correct) / float64(total))
	}
	for name := range u.AccuracyByAttacker {
		att := `attacker="` + name + `"`
		c := sumCounters(cur.Counters, "experiment_verdicts_total{", att, `outcome="true_pos"`) +
			sumCounters(cur.Counters, "experiment_verdicts_total{", att, `outcome="true_neg"`)
		t := sumCounters(cur.Counters, "experiment_verdicts_total{", att)
		if t > 0 {
			u.AccuracyByAttacker[name] = sanitizeFloat(float64(c) / float64(t))
		} else {
			u.AccuracyByAttacker[name] = 0
		}
	}

	u.DetectSources = cur.Gauges["detect_sources_tracked"]
	u.DetectFlagged = sumCounters(cur.Counters, "detect_flagged_total")
	u.DetectFlaggedDelta = u.DetectFlagged - sumCounters(prev.Counters, "detect_flagged_total")

	u.FleetShards = cur.Gauges["netsim_fleet_shards"]
	u.FleetEvents = cur.Counters["netsim_events_total"]
	u.FleetEventsPerSec = rate(u.FleetEvents-prev.Counters["netsim_events_total"], elapsed)
	u.FleetWindows = cur.Counters["netsim_fleet_windows_total"]
	u.FleetCrossings = cur.Counters["netsim_fleet_crossings_total"]
	for k, v := range cur.Gauges {
		if strings.HasPrefix(k, "netsim_shard_occupancy") {
			u.FleetOccupancy += v
		}
	}

	u.SessionsActive = cur.Gauges["service_sessions_active"]
	u.SessionsQueued = cur.Gauges["service_sessions_queued"]
	u.Sessions = cur.Counters["service_sessions_total"]
	u.SessionsDelta = u.Sessions - prev.Counters["service_sessions_total"]
	u.ModelStoreModels = cur.Gauges["service_store_models"]
	u.ModelStoreBytes = cur.Gauges["service_store_bytes"]
	storeHits := sumCounters(cur.Counters, "service_store_lookups", `result="hit"`)
	storeMisses := sumCounters(cur.Counters, "service_store_lookups", `result="miss"`)
	if lookups := storeHits + storeMisses; lookups > 0 {
		u.ModelStoreHitPct = sanitizeFloat(100 * float64(storeHits) / float64(lookups))
	}

	u.Faults = sumCounters(cur.Counters, "faults_injected_total")
	u.FaultsDelta = u.Faults - sumCounters(prev.Counters, "faults_injected_total")
	u.Reconnects = cur.Counters["switch_reconnects_total"]
	u.Lost = sumCounters(cur.Counters, "experiment_probes_total", `result="lost"`) +
		cur.Counters["switch_probe_timeouts_total"]

	for k, v := range cur.Counters {
		if d := v - prev.Counters[k]; d != 0 {
			if u.Counters == nil {
				u.Counters = make(map[string]int64)
			}
			u.Counters[k] = d
		}
	}
	if len(cur.Gauges) > 0 {
		u.Gauges = make(map[string]int64, len(cur.Gauges))
		for k, v := range cur.Gauges {
			u.Gauges[k] = v
		}
	}
	return u
}

// DecodeLiveUpdate parses one SSE data payload back into a LiveUpdate —
// the consumer-side half of the /debug/live contract (cmd/flowtop).
func DecodeLiveUpdate(data []byte) (LiveUpdate, error) {
	var u LiveUpdate
	err := json.Unmarshal(data, &u)
	return u, err
}
