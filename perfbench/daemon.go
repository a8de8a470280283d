package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one flowrecond process, bound to a kernel-chosen loopback port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time     // just before exec
	outDone chan struct{} // closed once stdout reaches EOF
	exited  bool
}

// startDaemon execs flowrecond and waits until it reports its address and
// /readyz answers 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "flowrecond"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, outDone: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flowrecond: %w", err)
	}
	// The first stdout line names the bound address; the rest is drained
	// so the daemon never blocks on a full pipe.
	first := make(chan string, 1)
	go func() {
		defer close(d.outDone)
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, r)
	}()
	var line string
	select {
	case line = <-first:
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("flowrecond printed no address within 30s")
	}
	const marker = "listening on http://"
	i := strings.Index(line, marker)
	if i < 0 {
		d.kill()
		return nil, fmt.Errorf("flowrecond: unexpected first line %q", line)
	}
	d.addr = strings.Fields(line[i+len(marker):])[0]
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("flowrecond never became ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop delivers SIGTERM and waits for the graceful drain; the daemon must
// exit 0. It returns the process's resource usage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		<-d.outDone
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		d.exited = true
		if err != nil {
			return nil, fmt.Errorf("flowrecond drain: %w", err)
		}
		ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
		return ru, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("flowrecond did not exit within 60s of SIGTERM")
	}
}

// kill ends the process hard and reaps it; safe after stop.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.outDone
	_ = d.cmd.Wait()
	d.exited = true
}

// snapshot is the subset of a telemetry snapshot (the daemon's
// /debug/vars, or the file experiments -telemetry-out writes) the
// benchmark reads.
type snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Summary struct {
			N    float64 `json:"n"`
			Mean float64 `json:"mean"`
		} `json:"summary"`
	} `json:"histograms"`
}

func (s *snapshot) counter(name string) float64 { return s.Counters[name] }

// histSum returns a histogram's observation count and sum.
func (s *snapshot) histSum(name string) (n, sum float64) {
	h := s.Histograms[name]
	return h.Summary.N, h.Summary.N * h.Summary.Mean
}

func (d *daemon) snapshot(ctx context.Context) (*snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &s, nil
}

// layerTotals accumulates the model and trial layers' instruments across
// snapshots (daemon windows or regeneration processes).
type layerTotals struct {
	builds, buildMs, evolveNs     float64
	memoHit, memoMiss             float64
	cacheHit, cacheMiss           float64
	storeHit, storeMiss           float64
	trials, probes, lost, lookups float64
	schedUnits                    float64
}

// add accumulates after − before (before may be nil).
func (t *layerTotals) add(after, before *snapshot) {
	if before == nil {
		before = &snapshot{}
	}
	c := func(name string) float64 { return after.counter(name) - before.counter(name) }
	n1, s1 := after.histSum("model_build_ms")
	n0, s0 := before.histSum("model_build_ms")
	t.builds += n1 - n0
	t.buildMs += s1 - s0
	_, e1 := after.histSum("evolve_ns")
	_, e0 := before.histSum("evolve_ns")
	t.evolveNs += e1 - e0
	t.memoHit += c(`usum_memo_lookups{result="hit"}`)
	t.memoMiss += c(`usum_memo_lookups{result="miss"}`)
	t.cacheHit += c(`model_cache_lookups{result="hit"}`)
	t.cacheMiss += c(`model_cache_lookups{result="miss"}`)
	t.storeHit += c(`service_store_lookups{result="hit"}`)
	t.storeMiss += c(`service_store_lookups{result="miss"}`)
	t.trials += c("experiment_trials_total")
	lost := c(`experiment_probes_total{result="lost"}`)
	t.lost += lost
	t.probes += c(`experiment_probes_total{result="hit"}`) + c(`experiment_probes_total{result="miss"}`) + lost
	t.lookups += c(`flowtable_lookups_total{node="trial"}`)
	t.schedUnits += c("service_sched_units_total")
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// layerMetrics renders the per-layer metric set every workload reports,
// except the process-level ones (cpu_ms_per_op, maxrss_mb,
// output_kb_per_op) its caller adds; a layer the workload does not
// exercise reads 0. ops is the number of operations t covers.
func layerMetrics(t layerTotals, ops float64, spans spanQuantiles) map[string]metric {
	return map[string]metric{
		"queue_p50_ms":            {spans.queue, "ms"},
		"first_probe_p50_ms":      {spans.firstProbe, "ms"},
		"stream_p50_ms":           {spans.stream, "ms"},
		"latency_p90_ms":          {spans.p90, "ms"},
		"latency_p99_ms":          {spans.p99, "ms"},
		"model_builds_per_op":     {per(t.builds, ops), "count"},
		"model_build_ms_per_op":   {per(t.buildMs, ops), "ms"},
		"evolve_ms_per_op":        {per(t.evolveNs/1e6, ops), "ms"},
		"usum_memo_hit_pct":       {pct(t.memoHit, t.memoHit+t.memoMiss), "%"},
		"model_cache_hit_pct":     {pct(t.cacheHit, t.cacheHit+t.cacheMiss), "%"},
		"store_hit_pct":           {pct(t.storeHit, t.storeHit+t.storeMiss), "%"},
		"trials_per_op":           {per(t.trials, ops), "count"},
		"probes_per_op":           {per(t.probes, ops), "count"},
		"probe_lost_pct":          {pct(t.lost, t.probes), "%"},
		"table_lookups_per_trial": {per(t.lookups, t.trials), "count"},
		"sched_units_per_op":      {per(t.schedUnits, ops), "count"},
	}
}

// processMetrics adds the process-level metrics: CPU time and output per
// operation, and peak resident memory.
func processMetrics(m map[string]metric, cpuMsPerOp float64, maxRSSKB int64, outputBytesPerOp float64) {
	m["cpu_ms_per_op"] = metric{cpuMsPerOp, "ms"}
	m["maxrss_mb"] = metric{float64(maxRSSKB) / 1024, "MiB"}
	m["output_kb_per_op"] = metric{outputBytesPerOp / 1024, "KiB"}
}

// spanQuantiles are the client-side span medians of a session workload
// and the operation latency tail of any workload.
type spanQuantiles struct{ queue, firstProbe, stream, p90, p99 float64 }

func cpuTime(ru *syscall.Rusage) time.Duration {
	if ru == nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
