package flowtable

import "flowrecon/internal/telemetry"

// Metrics are the resolved telemetry instruments of one Table. The
// zero value (all nil) is the disabled configuration: every update is a
// nil-checked no-op, keeping the hot path within noise of the
// uninstrumented code (see BenchmarkTelemetryOverhead). A caller that
// runs many short-lived tables on one registry (the experiment trial
// loop resets one per trial and copies it per attacker) resolves them
// once with NewMetrics and attaches them with SetMetrics.
type Metrics struct {
	lookups     *telemetry.Counter
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	installs    *telemetry.Counter
	evictions   *telemetry.Counter
	expirations *telemetry.Counter
	occupancy   *telemetry.Gauge
}

// NewMetrics resolves a table's metric series from reg. node, when
// non-empty, becomes the `node` label on every series, letting multiple
// tables share one registry. A nil registry yields the disabled zero
// value.
func NewMetrics(reg *telemetry.Registry, node string) Metrics {
	var labels []string
	if node != "" {
		labels = []string{"node", node}
	}
	return Metrics{
		lookups:     reg.Counter("flowtable_lookups_total", labels...),
		hits:        reg.Counter("flowtable_lookup_hits_total", labels...),
		misses:      reg.Counter("flowtable_lookup_misses_total", labels...),
		installs:    reg.Counter("flowtable_installs_total", labels...),
		evictions:   reg.Counter("flowtable_evictions_total", labels...),
		expirations: reg.Counter("flowtable_expirations_total", labels...),
		occupancy:   reg.Gauge("flowtable_occupancy", labels...),
	}
}

// SetTelemetry attaches the table to a registry, resolving its metric
// series once (see NewMetrics). A nil registry detaches (disables)
// telemetry.
func (t *Table) SetTelemetry(reg *telemetry.Registry, node string) {
	t.tm = NewMetrics(reg, node)
}

// SetMetrics attaches instruments resolved by NewMetrics.
func (t *Table) SetMetrics(m Metrics) { t.tm = m }

// SetTelemetry instruments a StepTable with per-step counters for the
// discrete-time transition relation. node labels the series as in
// Table.SetTelemetry.
func (t *StepTable) SetTelemetry(reg *telemetry.Registry, node string) {
	var labels []string
	if node != "" {
		labels = []string{"node", node}
	}
	t.tm = stepMetrics{
		steps:    reg.Counter("steptable_steps_total", labels...),
		timeouts: reg.Counter("steptable_timeouts_total", labels...),
		hits:     reg.Counter("steptable_hits_total", labels...),
		misses:   reg.Counter("steptable_misses_total", labels...),
	}
}

// stepMetrics are the resolved instruments of one StepTable.
type stepMetrics struct {
	steps    *telemetry.Counter
	timeouts *telemetry.Counter
	hits     *telemetry.Counter
	misses   *telemetry.Counter
}
