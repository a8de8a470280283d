// Package controller implements the SDN controller application of the
// paper's testbed (the Ryu app of §VI-A): reactive installation of the
// highest-priority rule covering each reported flow, plus the deployment
// variants the paper discusses — proactive installation (§VII-B2) and
// consistent (dependency-aware) rule removal (§VII-A2).
//
// The transport-facing controllers (openflow.Controller over TCP and
// netsim's simulated control channel) delegate their decisions here, so
// policy behaviour is defined exactly once.
package controller

import (
	"fmt"
	"sync"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/telemetry"
)

// Options configure the controller application.
type Options struct {
	// ProcessingDelay is the controller's per-request compute time; it
	// contributes to t_setup and doubles as the §VII-B1 "adding delays"
	// countermeasure when increased.
	ProcessingDelay time.Duration
	// Proactive switches to proactive deployment (§VII-B2): every rule
	// is installed up front and reactive requests install nothing.
	Proactive bool
}

// Decision is the controller's answer to one packet-in.
type Decision struct {
	// Install reports whether a rule should be installed.
	Install bool
	// RuleID is the rule to install when Install is true.
	RuleID int
	// Delay is the processing delay the request incurred.
	Delay time.Duration
}

// Stats counts controller activity.
type Stats struct {
	PacketIns int64
	Installs  int64
	// InstallsByRule[j] counts installations of rule j.
	InstallsByRule []int64
}

// Reactive is the controller application state.
type Reactive struct {
	policy *rules.Set
	opts   Options

	mu    sync.Mutex
	stats Stats
	tm    reactiveMetrics // resolved telemetry instruments (zero = disabled)
}

// reactiveMetrics are the controller application's telemetry
// instruments; all nil (no-op) until SetTelemetry attaches a registry.
type reactiveMetrics struct {
	packetIns       *telemetry.Counter
	reactive        *telemetry.Counter // decisions that install a rule
	noInstall       *telemetry.Counter // decisions that release uninstalled
	proactivePlans  *telemetry.Counter
	capacityRejects *telemetry.Counter // §VII-B2 capacity-check failures
}

// SetTelemetry attaches the controller application to a registry,
// resolving its metric series once. A nil registry disables telemetry.
func (c *Reactive) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tm = reactiveMetrics{
		packetIns:       reg.Counter("controller_packet_ins_total"),
		reactive:        reg.Counter("controller_decisions_total", "kind", "install"),
		noInstall:       reg.Counter("controller_decisions_total", "kind", "release"),
		proactivePlans:  reg.Counter("controller_proactive_plans_total"),
		capacityRejects: reg.Counter("controller_capacity_rejections_total"),
	}
}

// New builds a controller application over a policy.
func New(policy *rules.Set, opts Options) *Reactive {
	return &Reactive{
		policy: policy,
		opts:   opts,
		stats:  Stats{InstallsByRule: make([]int64, policy.Len())},
	}
}

// Policy returns the controller's rule set.
func (c *Reactive) Policy() *rules.Set { return c.policy }

// Options returns the configured options.
func (c *Reactive) Options() Options { return c.opts }

// OnPacketIn decides how to handle a table miss for flow f: install the
// highest-priority covering rule, or release the packet uninstalled (the
// pre-installed flood default handles delivery, §VI-A).
func (c *Reactive) OnPacketIn(f flows.ID) Decision {
	c.mu.Lock()
	c.stats.PacketIns++
	c.mu.Unlock()
	c.tm.packetIns.Inc()
	d := Decision{Delay: c.opts.ProcessingDelay}
	if c.opts.Proactive {
		// Proactive deployment never installs reactively; a miss can
		// only be an uncovered flow.
		c.tm.noInstall.Inc()
		return d
	}
	j, ok := c.policy.HighestCovering(f)
	if !ok {
		c.tm.noInstall.Inc()
		return d
	}
	d.Install = true
	d.RuleID = j
	c.mu.Lock()
	c.stats.Installs++
	c.stats.InstallsByRule[j]++
	c.mu.Unlock()
	c.tm.reactive.Inc()
	return d
}

// ProactivePlan returns the rule IDs to pre-install at switch setup, in
// descending priority order. With Proactive set this is the whole policy;
// it errors when the table cannot hold it (the capacity caveat of
// §VII-B2).
func (c *Reactive) ProactivePlan(capacity int) ([]int, error) {
	if !c.opts.Proactive {
		return nil, nil
	}
	if c.policy.Len() > capacity {
		c.tm.capacityRejects.Inc()
		return nil, fmt.Errorf("controller: proactive deployment needs %d slots, table has %d", c.policy.Len(), capacity)
	}
	c.tm.proactivePlans.Inc()
	return c.policy.ByPriority(), nil
}

// Snapshot returns a copy of the activity counters.
func (c *Reactive) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.InstallsByRule = make([]int64, len(c.stats.InstallsByRule))
	copy(out.InstallsByRule, c.stats.InstallsByRule)
	return out
}
