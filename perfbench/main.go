// Command perfbench is the repository benchmark. It drives the flowrecond
// daemon and the experiments CLI as separate processes, from outside, and
// prints one JSON result as its last stdout line. perfbench/run.py builds
// everything from source and then runs it:
//
//	python3 perfbench/run.py --workload shared --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	shared    closed loop, 16 clients; sessions attack eight target
//	          configurations in turn, so the daemon's model store serves
//	          every session after the warm-up from memory
//	distinct  closed loop, 4 clients; sessions cycle through 256 target
//	          configurations, more than the model store holds, so each one
//	          pays a §IV-B model build
//	chaos     closed loop, 4 clients on the shared configurations, with
//	          injected probe loss and jitter and the streaming detector armed
//	          on every trial
//	fig6      back-to-back Figure 6 regenerations (experiments -fig6) of a
//	          fixed size, each at a fresh seed
//
// Each operation (a session from POST to result line, or a regeneration
// from spawn to exit) is a fixed amount of work, repeated until -seconds
// elapse. With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the per-layer metrics, taken from spans perfbench records
// around each call and from the programs' own telemetry snapshots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	bin     string // directory holding flowrecond and experiments
	work    string // directory for this run's files
	seed    uint64
	seconds time.Duration
	trace   bool
}

// outcome is what every workload returns: the timed operations, the
// set-up samples, the correctness verdict and (traced runs) the layers.
type outcome struct {
	setups    []float64 // seconds, one per set-up repetition
	latencies []float64 // milliseconds, one per successful operation
	attempted int
	failed    int
	elapsed   time.Duration // measured window, until the last operation ended
	problems  []string      // correctness violations; empty means correct
	layers    map[string]metric
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"shared":   func(c runConfig) (*outcome, error) { return runSessions(c, sharedLoad) },
	"distinct": func(c runConfig) (*outcome, error) { return runSessions(c, distinctLoad) },
	"chaos":    func(c runConfig) (*outcome, error) { return runSessions(c, chaosLoad) },
	"fig6":     runFig6,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: shared, distinct, chaos or fig6")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window, seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built flowrecond and experiments")
		work     = flag.String("work", ".bench_build/work", "directory for per-run files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		return 2
	}
	// perfbench mostly waits on sockets and pipes; one processor
	// keeps it from competing with the programs it measures.
	runtime.GOMAXPROCS(1)

	dir, err := freshDir(*work, *workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	out, err := run(runConfig{
		bin:     *bin,
		work:    dir,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if *trace == 1 {
		res.Metrics = out.layers
	} else {
		res.Metrics = endToEnd(out)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// endToEnd derives the user-facing metrics from a run. Tail latencies
// are reported with the layers instead: on a shared host they swing with
// neighbours' load far more than the median does.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"latency_p50_ms":   {quantile(o.latencies, 0.50), "ms"},
		"throughput_ops_s": {float64(len(o.latencies)) / o.elapsed.Seconds(), "1/s"},
		"setup_s":          {quantile(o.setups, 0.50), "s"},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mix derives the i-th input seed from the run seed (splitmix64), kept
// positive so it survives every int64 seed flag and JSON field.
func mix(seed, i uint64) int64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// freshDir makes an empty per-run directory under root.
func freshDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
