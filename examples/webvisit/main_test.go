package main

import "testing"

// TestRun runs the example end to end: run fails if either scenario is
// misclassified.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
