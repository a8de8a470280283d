package main

import "testing"

// TestRun runs the example end to end: run fails unless the timing channel
// recovers the true table capacity and brackets the true idle timeout.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
