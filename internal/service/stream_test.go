package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"flowrecon/internal/experiment"
	"flowrecon/internal/flows"
	"flowrecon/internal/trialrec"
)

// probeLine and verdictLine are the stream's per-trial line shapes as
// encoding/json sees them: the oracle the append encoder must match.
type probeLine struct {
	Type     string `json:"type"` // "probe"
	Trial    int    `json:"trial"`
	Attacker string `json:"attacker"`
	I        int    `json:"i"`
	Flow     int    `json:"flow"`
	Outcome  string `json:"outcome"` // classified "hit" / "miss"
	Lost     bool   `json:"lost,omitempty"`
}

type verdictLine struct {
	Type     string `json:"type"` // "verdict"
	Trial    int    `json:"trial"`
	Attacker string `json:"attacker"`
	Verdict  string `json:"verdict"` // "present" / "absent"
	Truth    string `json:"truth"`
	Correct  bool   `json:"correct"`
}

// encodeJSON is what json.Encoder writes for v: the stream's reference.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkLines compares one probe line and one verdict line from the
// append encoder against encoding/json.
func checkLines(t testing.TB, name string, trial, i, flow int, hit, lost, verdict, truth bool) {
	t.Helper()
	q := quoteName(name)
	got := appendProbeLine(nil, trial, q, i, flow, hit, lost)
	want := encodeJSON(t, probeLine{Type: "probe", Trial: trial, Attacker: name, I: i, Flow: flow, Outcome: hitMiss(hit), Lost: lost})
	if !bytes.Equal(got, want) {
		t.Fatalf("probe line\n got %q\nwant %q", got, want)
	}
	got = appendVerdictLine(nil, trial, q, verdict, truth)
	want = encodeJSON(t, verdictLine{Type: "verdict", Trial: trial, Attacker: name, Verdict: presence(verdict), Truth: presence(truth), Correct: verdict == truth})
	if !bytes.Equal(got, want) {
		t.Fatalf("verdict line\n got %q\nwant %q", got, want)
	}
}

// TestStreamLinesMatchEncoding pins the append-encoded probe and verdict
// lines to encoding/json byte for byte, across the omitempty field, the
// integer range and the names whose quoting is easiest to get wrong.
func TestStreamLinesMatchEncoding(t *testing.T) {
	names := []string{
		"naive", "", "model(m=2)",
		"<script>&amp;</script>", // HTML-escaped by encoding/json
		`say "hi"`, `back\slash`, "tab\tnew\nline\x00\x1f",
		"line\u2028sep\u2029para", "\xff\xfeinvalid\xc3", "ünï©ødé 🙂",
	}
	ints := []int{0, 1, 9, 10, 123456, math.MaxInt32, math.MaxInt64, -1}
	for _, name := range names {
		for _, n := range ints {
			for _, b := range []bool{false, true} {
				checkLines(t, name, n, n, n, b, b, b, !b)
				checkLines(t, name, n, 0, n, !b, b, b, b)
			}
		}
	}
}

// FuzzStreamLinesMatchEncoding holds the append encoder to encoding/json
// on arbitrary attacker names, integers and flags.
func FuzzStreamLinesMatchEncoding(f *testing.F) {
	f.Add("naive", 0, 0, 0, false, false, false, false)
	f.Add("<a&b>\u2028\"\\", 12345, 7, 255, true, true, true, false)
	f.Add("\xff", -1, math.MaxInt64, math.MinInt64, false, true, false, true)
	f.Fuzz(func(t *testing.T, name string, trial, i, flow int, outcome, lost, verdict, truth bool) {
		checkLines(t, name, trial, i, flow, outcome, lost, verdict, truth)
	})
}

// TestTrialEncoderMatchesEncoding renders whole trials, including a
// lost probe and a result whose roster names need escaping, and checks
// them against the per-line reference.
func TestTrialEncoderMatchesEncoding(t *testing.T) {
	names := []string{"a<b>", "model", "\xffbad"}
	e := newTrialEncoder(names)
	res := experiment.TrialResult{
		Trial: 42,
		Truth: true,
		Attackers: []trialrec.AttackerTrial{
			{Name: names[0], Probes: []flows.ID{3, 5}, Outcomes: []bool{true}, Lost: []bool{false, true}, Verdict: true},
			{Name: names[1], Probes: []flows.ID{7}, Outcomes: []bool{false}, Verdict: false},
			{Name: names[2], Verdict: true},
		},
	}
	var want []byte
	for _, att := range res.Attackers {
		for i, f := range att.Probes {
			pl := probeLine{Type: "probe", Trial: res.Trial, Attacker: att.Name, I: i, Flow: int(f),
				Outcome: hitMiss(i < len(att.Outcomes) && att.Outcomes[i]), Lost: i < len(att.Lost) && att.Lost[i]}
			want = append(want, encodeJSON(t, pl)...)
		}
		want = append(want, encodeJSON(t, verdictLine{Type: "verdict", Trial: res.Trial, Attacker: att.Name,
			Verdict: presence(att.Verdict), Truth: presence(res.Truth), Correct: att.Verdict == res.Truth})...)
	}
	for round := 0; round < 2; round++ { // the second round reuses the buffer
		if got := e.encode(res); !bytes.Equal(got, want) {
			t.Fatalf("round %d:\n got %s\nwant %s", round, got, want)
		}
	}
	if !utf8.Valid(quoteName("\xff")) {
		t.Fatal("quoted invalid UTF-8 is not valid UTF-8")
	}
}

// flushRecorder is a ResponseWriter that records where in the body each
// Flush fell and runs a probe at every flush.
type flushRecorder struct {
	header  http.Header
	mu      sync.Mutex
	body    bytes.Buffer
	flushAt []int // body length at each Flush
	onFlush func()
}

func (r *flushRecorder) Header() http.Header { return r.header }

func (r *flushRecorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(b)
}

func (r *flushRecorder) WriteHeader(int) {}

func (r *flushRecorder) Flush() {
	r.mu.Lock()
	r.flushAt = append(r.flushAt, r.body.Len())
	r.mu.Unlock()
	if r.onFlush != nil {
		r.onFlush()
	}
}

// flushed returns the body up to the last Flush.
func (r *flushRecorder) flushed() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.flushAt) == 0 {
		return nil
	}
	return append([]byte(nil), r.body.Bytes()[:r.flushAt[len(r.flushAt)-1]]...)
}

// TestStreamFlushesBeforeBlocking runs a session's trials by hand: once
// trial 0 is done and trial 1 has not even started, trial 0's lines must
// already be flushed, because the stream is about to wait.
func TestStreamFlushesBeforeBlocking(t *testing.T) {
	m := NewManager(Config{MaxActive: 1, Workers: 1})
	defer m.Shutdown()
	spec := testSpec("block", 3, 3, 2)
	key, err := KeyForTarget(spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	model, err := m.Store().Get(spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := model.Roster(spec.Target.Probes)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := spec.Target.Runner(model.NC, roster, experiment.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession("manual", spec, key, model, runner)
	seeds := experiment.TrialSeeds(spec.Target.TrialSeed, spec.Target.Trials)

	rec := &flushRecorder{header: http.Header{}}
	flushes := make(chan struct{}, 1)
	rec.onFlush = func() {
		select {
		case flushes <- struct{}{}:
		default:
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamSession(rec, m, spec, sess)
	}()
	trial0 := []byte(`{"type":"verdict","trial":0,"attacker":` + string(quoteName(sess.Names()[len(sess.Names())-1])))
	sess.runUnit(0, seeds[0])
	deadline := time.After(10 * time.Second)
	for !bytes.Contains(rec.flushed(), trial0) {
		select {
		case <-flushes:
		case <-deadline:
			t.Fatalf("trial 0 not flushed while the stream waits on trial 1; flushed so far:\n%s", rec.flushed())
		}
	}
	for tr := 1; tr < len(seeds); tr++ {
		sess.runUnit(tr, seeds[tr])
	}
	<-done
	if out := rec.flushed(); !bytes.Contains(out, []byte(`{"type":"result","trials":3,`)) {
		t.Fatalf("result line not flushed:\n%s", out)
	}
}

// TestStreamFlushDiscipline drives handleOpen against a recording
// writer: the accepted line goes out on its own before any trial is
// delivered, the result line is flushed last, and trials that are
// already waiting share flushes, so there is at most one flush per
// trial plus the accepted and result lines.
func TestStreamFlushDiscipline(t *testing.T) {
	const trials = 40
	m := NewManager(Config{MaxActive: 2, Workers: 2})
	defer m.Shutdown()
	spec := testSpec("flush", 9, trials, 2)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{header: http.Header{}}
	var deliveredAtFirst = -1
	rec.onFlush = func() {
		if deliveredAtFirst < 0 {
			infos := m.Sessions()
			if len(infos) != 1 {
				t.Errorf("first flush sees %d sessions", len(infos))
				return
			}
			deliveredAtFirst = infos[0].Done
		}
	}
	handleOpen(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)), m)

	out := rec.body.Bytes()
	lines := bytes.SplitAfter(out, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	if len(lines) < 2 || !bytes.HasPrefix(lines[0], []byte(`{"type":"accepted"`)) || !bytes.HasPrefix(lines[len(lines)-1], []byte(`{"type":"result"`)) {
		t.Fatalf("unexpected stream shape:\n%s", out)
	}
	if len(rec.flushAt) == 0 || rec.flushAt[0] != len(lines[0]) {
		t.Fatalf("first flush at byte %v, want right after the accepted line (%d bytes)", rec.flushAt, len(lines[0]))
	}
	if deliveredAtFirst != 0 {
		t.Fatalf("accepted line flushed after %d trials were delivered, want 0", deliveredAtFirst)
	}
	if last := rec.flushAt[len(rec.flushAt)-1]; last != len(out) {
		t.Fatalf("last flush at byte %d of %d: the result line was not flushed last", last, len(out))
	}
	if n := len(rec.flushAt); n > trials+2 {
		t.Fatalf("%d flushes for %d trials, want <= %d", n, trials, trials+2)
	}
	// Every flush lands on a line boundary: a client never sees half a
	// trial while the server blocks.
	ends := map[int]bool{}
	n := 0
	for _, l := range lines {
		n += len(l)
		ends[n] = true
	}
	for _, at := range rec.flushAt {
		if !ends[at] {
			t.Fatalf("flush at byte %d splits a line", at)
		}
	}
}

// TestStreamLiveness: a client sees trial 0's lines while the session is
// still running. One worker and a long session make the server block on
// later trials, which is exactly when it must flush what it holds.
func TestStreamLiveness(t *testing.T) {
	const trials = 200000
	srv, m := newTestServer(t, Config{MaxActive: 2, Workers: 1})
	resp := postSpec(t, srv.URL, testSpec("live", 5, trials, 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sess *Session
	m.mu.Lock()
	for _, s := range m.sessions {
		if s.ID == resp.Header.Get("X-Session-Id") {
			sess = s
		}
	}
	m.mu.Unlock()
	if sess == nil {
		t.Fatal("session not found")
	}
	sc := bufio.NewScanner(resp.Body)
	verdicts := 0
	for verdicts < len(sess.Names()) && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, `{"type":"verdict","trial":0,`) {
			verdicts++
		} else if !strings.HasPrefix(line, `{"type":"accepted"`) && !strings.HasPrefix(line, `{"type":"probe","trial":0,`) {
			t.Fatalf("unexpected line before trial 0's verdicts: %s", line)
		}
	}
	if verdicts != len(sess.Names()) {
		t.Fatalf("stream ended after %d of trial 0's verdicts: %v", verdicts, sc.Err())
	}
	// One worker runs the session's units in trial order, so the last
	// trial has completed exactly when the scheduler has no work left.
	m.sched.mu.Lock()
	lastDone := m.sched.inflight == 0 && m.sched.readyLenLocked() == 0
	m.sched.mu.Unlock()
	if lastDone {
		t.Fatal("trial 0 reached the client only after the last trial completed")
	}
}
