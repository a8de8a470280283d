package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// figureRun is one Figure 6 or 7 regeneration as the CLI prints it.
type figureRun struct {
	result    any // *Fig6Result or *Fig7Result
	outcomes  []ConfigOutcome
	report    []byte // WriteFig6/WriteFig7, then WriteCSV
	err       string
	attempts  int64 // figure_attempts_total
	discards  int64 // figure_speculative_discards_total
	qualified int
}

func runFigure(t *testing.T, fig int, opts FigureOptions) figureRun {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Telemetry = reg
	var (
		run      figureRun
		outcomes []ConfigOutcome
		buf      bytes.Buffer
		err      error
	)
	if fig == 6 {
		var res *Fig6Result
		if res, err = RunFig6(opts); err == nil {
			run.result, outcomes = res, res.Outcomes
			err = WriteFig6(&buf, res)
		}
	} else {
		var res *Fig7Result
		if res, err = RunFig7(opts); err == nil {
			run.result, outcomes = res, res.Outcomes
			err = WriteFig7(&buf, res)
		}
	}
	if err == nil {
		err = WriteCSV(&buf, outcomes)
	}
	if err != nil {
		run.err = err.Error()
	}
	run.report, run.outcomes, run.qualified = buf.Bytes(), outcomes, len(outcomes)
	run.attempts = reg.Counter("figure_attempts_total").Value()
	run.discards = reg.Counter("figure_speculative_discards_total").Value()
	return run
}

// sampleFigureSerial is the one-attempt-at-a-time sampling loop that
// sampleFigure replaced, kept as its oracle: it forks every attempt from
// the root RNG and draws each accepted configuration's trial seed after
// that fork.
func sampleFigureSerial(opts FigureOptions, accept func(*NetworkConfig) bool,
	roster func(*NetworkConfig) ([]core.Attacker, error)) (outcomes []ConfigOutcome, attempted int, err error) {
	rng := stats.NewRNG(opts.Seed)
	for ; attempted < opts.MaxAttempts && len(outcomes) < opts.Configs; attempted++ {
		nc, err := GenerateConfig(opts.Params.WithStratum(attempted), nil, rng.Fork(), nil)
		if err != nil || !accept(nc) {
			continue
		}
		attackers, err := roster(nc)
		if err != nil {
			return nil, attempted, err
		}
		runner := NewTrialRunner(nc, attackers, DefaultMeasurement(), RunnerOptions{})
		results, err := runner.RunTrials(opts.TrialsPerConfig, rng.Int63(), 1)
		if err != nil {
			return nil, attempted, err
		}
		out := ConfigOutcome{
			PAbsent:           nc.PAbsent(),
			NumCoveringTarget: nc.NumCoveringTarget,
			OptimalFlow:       int(nc.Optimal.Flow),
			TargetFlow:        int(nc.Target),
			Accuracy:          map[string]float64{},
		}
		for _, r := range results {
			out.Accuracy[r.Name] = r.Accuracy()
		}
		outcomes = append(outcomes, out)
	}
	if len(outcomes) == 0 {
		return nil, attempted, fmt.Errorf("experiment: no qualifying configurations in %d attempts", attempted)
	}
	return outcomes, attempted, nil
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: every sampling worker must have exited by the time its figure
// returns. A goroutine counted after its deferred wg.Done has run but
// before it returns gets a moment to finish.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive the run, %d before it", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSampleFigureParallelIdentical holds the speculative sampler to its
// contract: Figures 6 and 7 are the same result, and print the same
// bytes, at every worker count, and no worker outlives the figure. At
// one worker the sampled population is the serial loop's. The
// cases cover acceptances close enough together that speculative builds
// are dropped (seeds whose 200 attempts accept from 7 to 15
// configurations), a run that meets its configuration quota with
// attempts still in flight, and a run where nothing qualifies.
func TestSampleFigureParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figures 6 and 7 at small scale")
	}
	cases := []struct {
		name                 string
		fig                  int
		seed                 int64
		configs, maxAttempts int
		want                 string // "close": several acceptances, "quota": stops at configs, "none": no figure
	}{
		{"fig6/close acceptances", 6, 19, 1000, 200, "close"},
		{"fig6/quota with attempts in flight", 6, 4, 2, 4000, "quota"},
		{"fig6/nothing qualifies", 6, 1, 1000, 40, "none"},
		{"fig7/close acceptances", 7, 4, 1000, 200, "close"},
		{"fig7/quota with attempts in flight", 7, 2, 3, 4000, "quota"},
		{"fig7/nothing qualifies", 7, 28, 1000, 40, "none"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var serial figureRun
			for _, par := range []int{1, 2, 3, 8} {
				opts := FigureOptions{
					Params:          SmallParams(),
					Configs:         c.configs,
					TrialsPerConfig: 20,
					MaxAttempts:     c.maxAttempts,
					Seed:            c.seed,
					Parallelism:     par,
				}
				run := runFigure(t, c.fig, opts)
				waitGoroutines(t, base, c.name)
				// Each acceptance drops at most the 2·par−1 attempts
				// speculated past it.
				if max := int64((2*par - 1) * run.qualified); run.discards > max {
					t.Errorf("parallelism %d: %d speculative discards for %d accepted configurations, want ≤ %d",
						par, run.discards, run.qualified, max)
				}
				if par > 1 {
					if run.err != serial.err || run.attempts != serial.attempts {
						t.Errorf("parallelism %d: error %q after %d attempts, serial %q after %d",
							par, run.err, run.attempts, serial.err, serial.attempts)
					}
					if !reflect.DeepEqual(run.result, serial.result) {
						t.Errorf("parallelism %d: result differs from parallelism 1", par)
					}
					if !bytes.Equal(run.report, serial.report) {
						t.Errorf("parallelism %d: report differs from parallelism 1:\n%s\nvs\n%s", par, run.report, serial.report)
					}
					continue
				}
				serial = run
				accept, roster := fig6Accept, fig6Roster
				if c.fig == 7 {
					accept, roster = (*NetworkConfig).DetectorViable, fig7Roster
				}
				want, attempted, err := sampleFigureSerial(opts, accept, roster)
				wantErr := ""
				if err != nil {
					wantErr = err.Error()
				}
				if wantErr != run.err || int64(attempted) != run.attempts || !reflect.DeepEqual(run.outcomes, want) {
					t.Fatalf("serial loop: %d outcomes after %d attempts (error %q); sampler: %d after %d (error %q)",
						len(want), attempted, wantErr, run.qualified, run.attempts, run.err)
				}
				switch {
				case c.want == "close" && run.qualified < 5,
					c.want == "quota" && (run.qualified != c.configs || run.attempts >= int64(c.maxAttempts)),
					c.want == "none" && (run.err == "" || run.attempts != int64(c.maxAttempts)):
					t.Fatalf("serial run: %d configurations from %d attempts (error %q) does not exercise the %q case",
						run.qualified, run.attempts, run.err, c.want)
				}
			}
		})
	}

	// A roster error ends the run at the attempt it was building, with
	// the workers stopped.
	t.Run("roster error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		boom := errors.New("roster failed")
		serial := -1
		for _, par := range []int{1, 2, 8} {
			opts := FigureOptions{Params: SmallParams(), Configs: 10, TrialsPerConfig: 5, MaxAttempts: 4000, Seed: 3, Parallelism: par}
			_, attempted, err := sampleFigure(opts, (*NetworkConfig).DetectorViable,
				func(*NetworkConfig) ([]core.Attacker, error) { return nil, boom })
			if !errors.Is(err, boom) {
				t.Fatalf("parallelism %d: error %v, want %v", par, err, boom)
			}
			waitGoroutines(t, base, "roster error")
			if serial < 0 {
				serial = attempted
			} else if attempted != serial {
				t.Errorf("parallelism %d: roster error at attempt %d, serial at %d", par, attempted, serial)
			}
		}
	})
}
