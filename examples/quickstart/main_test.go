package main

import "testing"

// TestRun runs the example and checks the §III-B result it prints: the
// optimal probe for f1 is f2, not f1 itself, and the best probe pair
// gains at least as much as the best single probe.
func TestRun(t *testing.T) {
	best, pair, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if best.Flow != 1 {
		t.Fatalf("optimal probe f%d, want f2 (the Figure 2c effect)", best.Flow+1)
	}
	if len(pair.Flows) != 2 || pair.Gain < best.Gain {
		t.Fatalf("best pair %v gains %.4f bits, below the single probe's %.4f", pair.Flows, pair.Gain, best.Gain)
	}
}
