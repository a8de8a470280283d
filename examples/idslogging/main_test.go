package main

import "testing"

// TestRun runs the example end to end: model fit, probe ranking and the
// 400-trial comparison of the naive, single-probe and pair attackers.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
