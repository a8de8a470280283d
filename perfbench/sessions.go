package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Session spec, as flowrecond decodes it (experiment.Params has no JSON
// tags, so its fields travel under their Go names).
type params struct {
	NumFlows, NumRules, MaskBits, CacheSize int
	Delta, WindowSeconds                    float64
	USum                                    struct{ ExactLimit, MCSamples, Seed int64 }
	AbsenceLo, AbsenceHi                    float64
}

type faultProfile struct {
	Seed         int64   `json:"seed"`
	LossProb     float64 `json:"lossProb,omitempty"`
	JitterMeanMs float64 `json:"jitterMeanMs,omitempty"`
}

type target struct {
	Params     params        `json:"params"`
	ConfigSeed int64         `json:"configSeed"`
	TrialSeed  int64         `json:"trialSeed"`
	Trials     int           `json:"trials"`
	Probes     int           `json:"probes"`
	Faults     *faultProfile `json:"faults,omitempty"`
}

type sessionSpec struct {
	Name   string `json:"name,omitempty"`
	Target target `json:"target"`
	Detect bool   `json:"detect,omitempty"`
}

// smallParams is the 8-flow, 6-rule scale the service tests use: a model
// builds in milliseconds, so a session's cost is spread over every layer.
func smallParams() params {
	p := params{
		NumFlows: 8, NumRules: 6, MaskBits: 3, CacheSize: 3,
		Delta: 0.05, WindowSeconds: 5,
		AbsenceLo: 0.02, AbsenceHi: 0.98,
	}
	p.USum.ExactLimit, p.USum.MCSamples, p.USum.Seed = 20000, 600, 1
	return p
}

// sessionLoad is one closed-loop session workload.
type sessionLoad struct {
	clients    int
	daemonArgs []string
	faults     bool
	// spec returns the i-th session of a run with the given seed.
	spec func(seed, i uint64) sessionSpec
}

const sessionTrials, sessionProbes = 8, 2

// sharedConfigs is the shared and chaos workloads' working set: a few
// target configurations taken in turn, well within the daemon's model
// store, so every session after the warm-up hits the store, while a run's
// cost averages over several configurations instead of resting on one.
const sharedConfigs = 8

// distinctConfigs is the distinct workload's working set: target
// configurations taken in turn, four times the daemon's default model-store
// capacity, so every session misses the store (and the model layer's own
// 32-entry cache) and rebuilds its model. A finite set keeps the daemon's
// memory bounded, so a run measures a steady state rather than heap growth;
// the warm-up takes one pass over it.
const distinctConfigs = 256

func baseSpec(seed, i uint64) sessionSpec {
	return sessionSpec{
		Name: "perfbench",
		Target: target{
			Params:     smallParams(),
			ConfigSeed: mix(seed, i%sharedConfigs),
			TrialSeed:  mix(seed, 1+i),
			Trials:     sessionTrials,
			Probes:     sessionProbes,
		},
	}
}

var (
	sharedLoad = sessionLoad{
		clients:    16,
		daemonArgs: []string{"-workers", "2"},
		spec:       baseSpec,
	}
	distinctLoad = sessionLoad{
		clients:    4,
		daemonArgs: []string{"-workers", "2"},
		spec: func(seed, i uint64) sessionSpec {
			s := baseSpec(seed, i)
			s.Target.ConfigSeed = mix(seed^0xd1571c7, i%distinctConfigs)
			return s
		},
	}
	chaosLoad = sessionLoad{
		clients:    4,
		daemonArgs: []string{"-workers", "2", "-detect"},
		faults:     true,
		spec: func(seed, i uint64) sessionSpec {
			s := baseSpec(seed, i)
			s.Target.Faults = &faultProfile{Seed: mix(seed^0xfa17, i), LossProb: 0.05, JitterMeanMs: 0.3}
			s.Detect = true
			return s
		},
	}
)

const (
	setupSeed     = 0               // seed of the set-up inputs, whatever the run seed
	setupRuns     = 9               // daemon cold starts per run; setup_s is their median
	setupSessions = sharedConfigs   // sessions each cold start serves before it counts as set up
	warmup        = time.Second     // unmeasured load before the window
	warmupBase    = uint64(1) << 40 // session indices used by the warm-up
	verifyEvery   = 4               // every n-th session is fully parsed and hashed
	replaySamples = 8               // hashed sessions re-run to check determinism
)

// sessionResult is one session as the client saw it.
type sessionResult struct {
	i                                uint64
	queue, firstProbe, stream, total time.Duration
	bytes                            int
	sum                              [sha256.Size]byte
	hashed                           bool
	err                              error // the session failed
	bad                              error // the session completed with a wrong stream
}

type sessionClient struct {
	hc     *http.Client
	faults bool
}

// session posts spec and consumes the JSONL stream, timing three spans:
// queue (POST until the response header, which flowrecond sends once the
// session is admitted, its model resolved and its trials enqueued), first
// probe (header until the first probe line) and stream (the rest, up to
// the result line). With verify the stream is parsed and checked line by
// line and hashed; otherwise only its first and last lines are checked.
func (c *sessionClient) session(addr string, spec sessionSpec, i uint64, verify bool) sessionResult {
	r := sessionResult{i: i}
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	tHdr := time.Now()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return r
	}
	var (
		v     *verifier
		h     = sha256.New()
		br    = bufio.NewReaderSize(resp.Body, 64<<10)
		tProb time.Time
		n     int
		last  []byte
	)
	if verify {
		v = &verifier{spec: spec, faults: c.faults}
	}
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			n++
			r.bytes += len(line)
			if tProb.IsZero() && bytes.HasPrefix(line, []byte(`{"type":"probe"`)) {
				tProb = time.Now()
			}
			if v != nil {
				h.Write(line)
				v.line(line)
			} else if n == 1 && !bytes.HasPrefix(line, []byte(`{"type":"accepted"`)) {
				r.bad = fmt.Errorf("first line %.80q", line)
			}
			last = append(last[:0], line...)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			r.err = fmt.Errorf("read stream: %w", err)
			return r
		}
	}
	tEnd := time.Now()
	if bytes.HasPrefix(last, []byte(`{"type":"error"`)) {
		r.err = fmt.Errorf("session error: %s", bytes.TrimSpace(last))
		return r
	}
	if want := fmt.Sprintf(`{"type":"result","trials":%d,`, spec.Target.Trials); !bytes.HasPrefix(last, []byte(want)) {
		r.bad = fmt.Errorf("last line %.80q, want prefix %s", last, want)
	}
	if v != nil {
		if err := v.finish(); err != nil {
			r.bad = err
		}
		copy(r.sum[:], h.Sum(nil))
		r.hashed = true
	}
	if tProb.IsZero() {
		tProb = tEnd
	}
	r.queue, r.firstProbe, r.stream, r.total = tHdr.Sub(t0), tProb.Sub(tHdr), tEnd.Sub(tProb), tEnd.Sub(t0)
	return r
}

// streamLine is the union of flowrecond's stream line shapes.
type streamLine struct {
	Type      string             `json:"type"`
	Trials    int                `json:"trials"`
	Probes    int                `json:"probes"`
	Attackers []string           `json:"attackers"`
	Trial     int                `json:"trial"`
	Attacker  string             `json:"attacker"`
	I         int                `json:"i"`
	Outcome   string             `json:"outcome"`
	Lost      bool               `json:"lost"`
	Verdict   string             `json:"verdict"`
	Truth     string             `json:"truth"`
	Correct   bool               `json:"correct"`
	Accuracy  map[string]float64 `json:"accuracy"`
}

// verifier checks a session stream against the protocol: one accepted
// line echoing the budget; per trial, in trial order, every attacker's
// probe lines (numbered from 0) followed by its verdict, in roster order;
// one result line whose accuracies equal the verdict tallies.
type verifier struct {
	spec    sessionSpec
	faults  bool
	n       int
	roster  []string
	trial   int // trial of the next verdict
	att     int // roster index of the next verdict
	probeI  int // index of the next probe line
	truth   string
	correct map[string]int
	done    bool
	err     error
}

func (v *verifier) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("line %d: "+format, append([]any{v.n}, args...)...)
	}
}

func (v *verifier) line(b []byte) {
	v.n++
	if v.err != nil {
		return
	}
	var l streamLine
	if err := json.Unmarshal(b, &l); err != nil {
		v.fail("%v", err)
		return
	}
	if v.done {
		v.fail("line after result")
		return
	}
	if v.n == 1 {
		if l.Type != "accepted" || l.Trials != v.spec.Target.Trials || l.Probes != v.spec.Target.Probes || len(l.Attackers) == 0 {
			v.fail("bad accepted line %s", b)
		}
		v.roster, v.correct = l.Attackers, make(map[string]int)
		return
	}
	switch l.Type {
	case "probe":
		switch {
		case v.trial >= v.spec.Target.Trials || l.Trial != v.trial || l.Attacker != v.roster[v.att] || l.I != v.probeI:
			v.fail("probe out of order %s", b)
		case l.Outcome != "hit" && l.Outcome != "miss":
			v.fail("bad outcome %s", b)
		case l.Lost && !v.faults:
			v.fail("lost probe without faults %s", b)
		}
		v.probeI++
	case "verdict":
		if v.trial >= v.spec.Target.Trials || l.Trial != v.trial || l.Attacker != v.roster[v.att] {
			v.fail("verdict out of order %s", b)
			return
		}
		if v.att == 0 {
			v.truth = l.Truth
		}
		switch {
		case !presence(l.Verdict) || !presence(l.Truth) || l.Truth != v.truth:
			v.fail("bad verdict %s", b)
		case l.Correct != (l.Verdict == l.Truth):
			v.fail("verdict scored wrong %s", b)
		}
		if l.Correct {
			v.correct[l.Attacker]++
		}
		v.probeI = 0
		if v.att++; v.att == len(v.roster) {
			v.att, v.trial = 0, v.trial+1
		}
	case "result":
		v.done = true
		if l.Trials != v.spec.Target.Trials || v.trial != l.Trials || v.att != 0 || len(l.Accuracy) != len(v.roster) {
			v.fail("result disagrees with stream %s", b)
			return
		}
		for _, name := range v.roster {
			if want := float64(v.correct[name]) / float64(l.Trials); l.Accuracy[name] != want {
				v.fail("accuracy[%s] = %v, stream says %v", name, l.Accuracy[name], want)
			}
		}
	default:
		v.fail("unexpected line %s", b)
	}
}

func (v *verifier) finish() error {
	if v.err == nil && !v.done {
		v.fail("stream ended without a result line")
	}
	return v.err
}

func presence(s string) bool { return s == "present" || s == "absent" }

// closedLoop runs clients that each open sessions back to back until
// `until`, taking session indices from next; it returns every session.
func closedLoop(clients int, until time.Time, next func() uint64, do func(i uint64) sessionResult) []sessionResult {
	var (
		mu  sync.Mutex
		all []sessionResult
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sessionResult
			for time.Now().Before(until) {
				mine = append(mine, do(next()))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// runSessions measures one session workload against a flowrecond daemon.
func runSessions(cfg runConfig, load sessionLoad) (*outcome, error) {
	out := &outcome{}
	tr := &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &sessionClient{hc: &http.Client{Transport: tr}, faults: load.faults}

	// Set-up: cold-start the daemon and run setupSessions sessions, one
	// after another, each on its own target configuration; repeated, and
	// the last daemon is the one measured. The set-up sessions are the
	// same in every run (setupSeed), so set-up time tracks start-up and
	// first-build cost rather than how costly a model the run seed drew.
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			tr.CloseIdleConnections()
		}
		var err error
		if d, err = startDaemon(cfg.bin, load.daemonArgs...); err != nil {
			return nil, err
		}
		for i := uint64(0); i < setupSessions; i++ {
			r := cl.session(d.addr, load.spec(setupSeed, i), i, true)
			if r.err != nil {
				d.kill()
				return nil, fmt.Errorf("set-up session %d: %w", i, r.err)
			}
			if r.bad != nil {
				out.problem("set-up session %d: %v", i, r.bad)
			}
		}
		out.setups = append(out.setups, time.Since(d.started).Seconds())
	}
	defer d.kill()
	served := setupSessions

	do := func(i uint64) sessionResult {
		return cl.session(d.addr, load.spec(cfg.seed, i), i, i%verifyEvery == 0)
	}
	var warm atomic.Uint64
	warm.Store(warmupBase)
	for _, r := range closedLoop(load.clients, time.Now().Add(warmup), func() uint64 { return warm.Add(1) }, do) {
		served++
		if r.err != nil {
			return nil, fmt.Errorf("warm-up session %d: %w", r.i, r.err)
		}
	}

	var before *snapshot
	if cfg.trace {
		var err error
		if before, err = d.snapshot(context.Background()); err != nil {
			return nil, err
		}
	}
	var idx atomic.Uint64
	start := time.Now()
	results := closedLoop(load.clients, start.Add(cfg.seconds), func() uint64 { return idx.Add(1) }, do)
	out.elapsed = time.Since(start)
	served += len(results)
	var after *snapshot
	if cfg.trace {
		var err error
		if after, err = d.snapshot(context.Background()); err != nil {
			return nil, err
		}
	}

	sort.Slice(results, func(a, b int) bool { return results[a].i < results[b].i })
	var queue, first, stream []float64
	var streamBytes float64
	var replay []sessionResult
	for _, r := range results {
		out.attempted++
		switch {
		case r.err != nil:
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: session %d failed: %v\n", r.i, r.err)
			continue
		case r.bad != nil:
			out.problem("session %d: %v", r.i, r.bad)
		}
		out.latencies = append(out.latencies, ms(r.total))
		queue, first, stream = append(queue, ms(r.queue)), append(first, ms(r.firstProbe)), append(stream, ms(r.stream))
		streamBytes += float64(r.bytes)
		if r.hashed && len(replay) < replaySamples {
			replay = append(replay, r)
		}
	}

	// Determinism: a session's stream is a pure function of its spec, so
	// re-running sampled specs must reproduce their bytes exactly.
	for _, r := range replay {
		again := cl.session(d.addr, load.spec(cfg.seed, r.i), r.i, true)
		served++
		if again.err != nil || again.sum != r.sum {
			out.problem("session %d replay differs (err %v)", r.i, again.err)
		}
	}
	ru, err := d.stop()
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		var t layerTotals
		t.add(after, before)
		spans := spanQuantiles{
			queue:      quantile(queue, 0.5),
			firstProbe: quantile(first, 0.5),
			stream:     quantile(stream, 0.5),
			p90:        quantile(out.latencies, 0.90),
			p99:        quantile(out.latencies, 0.99),
		}
		ops := float64(len(out.latencies))
		out.layers = layerMetrics(t, ops, spans)
		// The daemon's CPU time covers its whole life, so it is spread
		// over every session it served, set-up and warm-up included.
		processMetrics(out.layers, ms(cpuTime(ru))/float64(served), ru.Maxrss, per(streamBytes, ops))
	}
	return out, nil
}
