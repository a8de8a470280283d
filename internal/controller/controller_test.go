package controller

import (
	"testing"
	"time"

	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
)

func testPolicy(t *testing.T) *rules.Set {
	t.Helper()
	s, err := rules.NewSet([]rules.Rule{
		{Name: "wide", Cover: flows.SetOf(0, 1), Priority: 3, Timeout: 5},
		{Name: "mid", Cover: flows.SetOf(1, 2), Priority: 2, Timeout: 5},
		{Name: "low", Cover: flows.SetOf(2), Priority: 1, Timeout: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOnPacketInReactive(t *testing.T) {
	c := New(testPolicy(t), Options{ProcessingDelay: 2 * time.Millisecond})
	d := c.OnPacketIn(1)
	if !d.Install || d.RuleID != 0 {
		t.Fatalf("flow 1 → %+v, want install rule 0 (highest covering)", d)
	}
	if d.Delay != 2*time.Millisecond {
		t.Fatalf("delay = %v", d.Delay)
	}
	d = c.OnPacketIn(2)
	if !d.Install || d.RuleID != 1 {
		t.Fatalf("flow 2 → %+v, want rule 1", d)
	}
	d = c.OnPacketIn(9)
	if d.Install {
		t.Fatalf("uncovered flow installed %+v", d)
	}
	st := c.Snapshot()
	if st.PacketIns != 3 || st.Installs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InstallsByRule[0] != 1 || st.InstallsByRule[1] != 1 || st.InstallsByRule[2] != 0 {
		t.Fatalf("per-rule installs = %v", st.InstallsByRule)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	c := New(testPolicy(t), Options{})
	c.OnPacketIn(0)
	st := c.Snapshot()
	st.InstallsByRule[0] = 99
	if c.Snapshot().InstallsByRule[0] == 99 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestProactiveNeverInstallsReactively(t *testing.T) {
	c := New(testPolicy(t), Options{Proactive: true})
	if d := c.OnPacketIn(1); d.Install {
		t.Fatalf("proactive controller installed reactively: %+v", d)
	}
	plan, err := c.ProactivePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 || plan[0] != 0 {
		t.Fatalf("plan = %v (want all rules, priority first)", plan)
	}
	if _, err := c.ProactivePlan(2); err == nil {
		t.Fatal("over-capacity proactive plan accepted (§VII-B2 caveat)")
	}
}

func TestProactivePlanDisabled(t *testing.T) {
	c := New(testPolicy(t), Options{})
	plan, err := c.ProactivePlan(1)
	if err != nil || plan != nil {
		t.Fatalf("reactive controller planned %v, %v", plan, err)
	}
}

func TestAccessors(t *testing.T) {
	p := testPolicy(t)
	opts := Options{Proactive: true}
	c := New(p, opts)
	if c.Policy() != p || c.Options() != opts {
		t.Fatal("accessors broken")
	}
}
