// Package detect is the defender's half of the timing side channel: a
// streaming anomaly detector that watches every PACKET_IN / probe on the
// controller path and scores each source's timing signature against a
// baseline learned from benign traffic.
//
// The attacker of §VI wins by driving the controller path with probes
// whose timing separates flow-table hits from misses. That same activity
// is visible to the defender — and it looks nothing like benign traffic:
//
//   - rate: eviction probing multiplies a source's PACKET_IN rate far
//     beyond its benign Poisson arrival rate (rate z-score);
//   - regularity: probe schedules are pathologically regular — the
//     coefficient of variation of inter-arrival gaps sits near 0 while
//     Poisson traffic has CV ≈ 1 (regularity test);
//   - skew: probing a cold flow repeatedly yields a hit/miss mix far
//     from the benign miss fraction (two-sided miss-skew z-test; only
//     meaningful on substrates that observe hits — the TCP controller
//     sees misses exclusively, so this scorer is off by default).
//
// Every per-source structure is fixed-size (ring-bucket rate window,
// log-bucket timing sketches, Welford moments), Observe is allocation-
// free after a source's first observation, detectors merge, and a
// detector restarts in place (Reset) keeping its per-source storage for
// the next run — the properties that let one replica ride the netsim
// virtual-time hot path, another the live TCP controller, and recycled
// per-trial replicas fold into a session-wide view for /debug/detect.
//
// A source here is a flow/source identifier (netsim flow ID, openflow
// universe flow ID): the attacker spoofs source addresses to probe other
// clients' flows, so probes attributed to the spoofed flow concentrate
// in that flow's stream — exactly where the anomaly shows up.
package detect

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"flowrecon/internal/telemetry"
)

// Baseline is the benign traffic profile the scorer compares against,
// learned offline from attack-free windows (see
// experiment.TrainDetectBaseline).
type Baseline struct {
	// Rates[src] is the benign controller-path observation rate of
	// source src in events/second. Sources beyond the slice fall back
	// to DefaultRate.
	Rates []float64 `json:"rates,omitempty"`
	// DefaultRate covers sources without a learned rate (events/s).
	DefaultRate float64 `json:"defaultRate"`
	// MissFracs[src] is the benign fraction of observations that were
	// table misses; sources beyond the slice fall back to MissFrac.
	MissFracs []float64 `json:"missFracs,omitempty"`
	// MissFrac is the fallback benign miss fraction.
	MissFrac float64 `json:"missFrac"`
}

func (b *Baseline) rateFor(src int) float64 {
	if src >= 0 && src < len(b.Rates) && b.Rates[src] > 0 {
		return b.Rates[src]
	}
	return b.DefaultRate
}

func (b *Baseline) missFracFor(src int) float64 {
	if src >= 0 && src < len(b.MissFracs) {
		return b.MissFracs[src]
	}
	return b.MissFrac
}

// Config tunes the detector. The zero value is unusable; start from
// DefaultConfig and override.
type Config struct {
	// WindowSec is the sliding rate window width in seconds.
	WindowSec float64
	// Buckets is the ring-bucket count of the rate window (resolution
	// WindowSec/Buckets).
	Buckets int
	// Baseline is the benign profile scored against.
	Baseline Baseline
	// RateZ flags a source whose windowed observation count exceeds the
	// benign expectation by this many Poisson standard deviations.
	RateZ float64
	// RegularityCVMax flags a source whose inter-arrival coefficient of
	// variation falls below this bound (benign Poisson gaps have CV≈1,
	// probe schedules CV≈0) once MinGaps gaps are seen. ≤0 disables.
	RegularityCVMax float64
	// MinGaps is the minimum inter-arrival gap count before the
	// regularity scorer may fire.
	MinGaps int
	// MissSkewZ flags a source whose hit/miss mix deviates from the
	// benign miss fraction by this many binomial standard deviations
	// (two-sided). ≤0 disables — required on substrates where the
	// observation point sees only misses (the TCP controller).
	MissSkewZ float64
	// MinObs is the minimum observation count before any scorer fires.
	MinObs int
	// MaxSources bounds tracked sources; observations for new sources
	// beyond the bound are dropped (and counted).
	MaxSources int
}

// DefaultConfig returns thresholds calibrated for the §VI evaluation
// universe (16 sources, benign λ ≈ 0.1–1/s, 15 s windows): FPR ≤ 1% on
// benign Poisson and bursty workloads while flagging the default
// attacker well inside 200 probes.
func DefaultConfig() Config {
	return Config{
		WindowSec:       15,
		Buckets:         16,
		Baseline:        Baseline{DefaultRate: 0.5, MissFrac: 0.5},
		RateZ:           8,
		RegularityCVMax: 0.3,
		MinGaps:         12,
		MissSkewZ:       0, // controller-path default: hits are invisible there
		MinObs:          8,
		MaxSources:      4096,
	}
}

// withDefaults fills unset fields so partial configs behave.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.WindowSec <= 0 {
		c.WindowSec = d.WindowSec
	}
	if c.Buckets <= 0 {
		c.Buckets = d.Buckets
	}
	if c.Baseline.DefaultRate <= 0 {
		c.Baseline.DefaultRate = d.Baseline.DefaultRate
	}
	if c.RateZ <= 0 {
		c.RateZ = d.RateZ
	}
	if c.MinGaps <= 0 {
		c.MinGaps = d.MinGaps
	}
	if c.MinObs <= 0 {
		c.MinObs = d.MinObs
	}
	if c.MaxSources <= 0 {
		c.MaxSources = d.MaxSources
	}
	return c
}

// Flag reasons, also the label values of detect_flagged_total{reason}.
const (
	ReasonRate       = "rate"
	ReasonRegularity = "regularity"
	ReasonMissSkew   = "miss-skew"
)

// Verdict records the moment a source crossed a detection threshold.
type Verdict struct {
	Source int     `json:"source"`
	T      float64 `json:"t"`      // observation-stream time, seconds
	Reason string  `json:"reason"` // ReasonRate, ReasonRegularity, ReasonMissSkew
	Score  float64 `json:"score"`  // normalized anomaly score (≥1 at flag time)
	Obs    int64   `json:"obs"`    // controller-path observations of the source so far
}

// sourceState is the complete per-source detector state: fixed-size
// after construction, so steady-state Observe allocates nothing, and
// reusable across detector restarts (see Detector.newSourceLocked).
type sourceState struct {
	src    int
	firstT float64
	lastT  float64
	obs    int64
	misses int64

	win rateWindow

	// Lifetime Welford moments over inter-arrival gaps — exact, and
	// mergeable across replicas (Chan et al. parallel combine).
	gapN    int64
	gapMean float64
	gapM2   float64

	// Exponentially-weighted gap moments (α = gapAlpha, memory ≈ the
	// last ~15 gaps) — the regularity scorer reads these, not the
	// lifetime moments: a source that turns into a metronome must look
	// like one within a window of gaps, however irregular its benign
	// history was. Lifetime CV converges to the probe signature only as
	// probes outnumber history, far too slowly for a 200-probe budget.
	ewmaMean float64
	ewmaVar  float64

	rtt Sketch // observed RTTs, milliseconds
	gap Sketch // inter-arrival gaps, seconds

	score   float64 // max normalized scorer output seen so far
	flagged bool
	reason  string
	flagT   float64
	flagObs int64
}

// gapAlpha is the EWMA smoothing factor of the regularity moments:
// 1/8 ≈ a ~15-gap effective memory.
const gapAlpha = 1.0 / 8

// gapCV returns the lifetime coefficient of variation of inter-arrival
// gaps (NaN until two gaps are seen).
func (s *sourceState) gapCV() float64 {
	if s.gapN < 2 || s.gapMean <= 0 {
		return math.NaN()
	}
	v := s.gapM2 / float64(s.gapN-1)
	return math.Sqrt(v) / s.gapMean
}

// ewmaCV returns the exponentially-weighted coefficient of variation the
// regularity scorer tests (NaN until two gaps are seen).
func (s *sourceState) ewmaCV() float64 {
	if s.gapN < 2 || s.ewmaMean <= 0 {
		return math.NaN()
	}
	return math.Sqrt(math.Max(s.ewmaVar, 0)) / s.ewmaMean
}

func (s *sourceState) missFrac() float64 {
	if s.obs == 0 {
		return 0
	}
	return float64(s.misses) / float64(s.obs)
}

// metrics is the detector's resolved instrument set (PR 1 idiom: nil
// instruments no-op, resolution happens once in SetTelemetry).
type metrics struct {
	observations *telemetry.Counter
	tracked      *telemetry.Gauge
	dropped      *telemetry.Counter
	flagRate     *telemetry.Counter
	flagReg      *telemetry.Counter
	flagSkew     *telemetry.Counter
}

func (m *metrics) flagCounter(reason string) *telemetry.Counter {
	switch reason {
	case ReasonRate:
		return m.flagRate
	case ReasonRegularity:
		return m.flagReg
	case ReasonMissSkew:
		return m.flagSkew
	}
	return nil
}

// Detector is the streaming anomaly detector. All methods are safe on a
// nil receiver (a nil detector is a disabled detector, costing one
// branch per call — the same discipline as the telemetry instruments),
// and safe for concurrent use.
type Detector struct {
	cfg Config

	mu       sync.Mutex
	sources  map[int]*sourceState
	flagged  int
	verdicts []Verdict
	dropped  int64

	// free holds the per-source states of earlier runs, handed out again
	// as new sources appear after a Reset; sorted is Merge's scratch for
	// visiting this detector's sources in source order.
	free   []*sourceState
	sorted []*sourceState

	onFlag func(Verdict)
	tm     metrics
}

// New builds a detector; zero fields of cfg take their defaults.
func New(cfg Config) *Detector {
	d := new(Detector)
	d.Reset(cfg)
	return d
}

// Reset restarts d as New(cfg) would build it: no sources, verdicts,
// counts, flag callback or instruments. The per-source states d holds,
// rate-window buckets included, move to a free list that later Observe
// and Merge calls draw from, so a recycled detector stops allocating
// once it has tracked as many sources as a run needs. A zero Detector
// may be Reset. d must not be in use while it restarts.
func (d *Detector) Reset(cfg Config) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg = cfg.withDefaults()
	if d.sources == nil {
		d.sources = make(map[int]*sourceState)
	}
	for _, s := range d.sources {
		d.free = append(d.free, s)
	}
	clear(d.sources)
	d.flagged = 0
	d.verdicts = d.verdicts[:0]
	d.dropped = 0
	d.onFlag = nil
	d.tm = metrics{}
}

// newSourceLocked tracks a new source first seen at firstT and last at
// lastT, reusing a state from the free list when one is left.
func (d *Detector) newSourceLocked(src int, firstT, lastT float64) *sourceState {
	var s *sourceState
	if n := len(d.free); n > 0 {
		s = d.free[n-1]
		d.free = d.free[:n-1]
		*s = sourceState{win: s.win} // the window's buckets are reused below
	} else {
		s = new(sourceState)
	}
	s.src, s.firstT, s.lastT = src, firstT, lastT
	s.win.reset(d.cfg.WindowSec, d.cfg.Buckets)
	d.sources[src] = s
	d.tm.tracked.Add(1)
	return s
}

// Config returns the detector's effective (default-filled) config.
func (d *Detector) Config() Config {
	if d == nil {
		return Config{}
	}
	return d.cfg
}

// SetTelemetry routes the detector's instruments into reg:
// detect_observations_total, detect_sources_tracked (cumulative sources
// ever tracked, so per-trial replicas sharing a registry sum),
// detect_sources_dropped_total, detect_flagged_total{reason}.
func (d *Detector) SetTelemetry(reg *telemetry.Registry) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tm = metrics{
		observations: reg.Counter("detect_observations_total"),
		tracked:      reg.Gauge("detect_sources_tracked"),
		dropped:      reg.Counter("detect_sources_dropped_total"),
		flagRate:     reg.Counter("detect_flagged_total", "reason", ReasonRate),
		flagReg:      reg.Counter("detect_flagged_total", "reason", ReasonRegularity),
		flagSkew:     reg.Counter("detect_flagged_total", "reason", ReasonMissSkew),
	}
}

// OnFlag registers a callback invoked (outside the detector lock) each
// time a source is first flagged — the hook that turns verdicts into
// wide events on the observability spine.
func (d *Detector) OnFlag(fn func(Verdict)) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.onFlag = fn
	d.mu.Unlock()
}

// Observe feeds one controller-path observation: source src was seen at
// stream time t (seconds; virtual or wall, monotone per substrate) with
// round-trip time rttMs (NaN when the substrate has no timing for this
// event) and table outcome hit. This is the hot path: zero allocations
// in steady state (a source's first observation allocates its state).
func (d *Detector) Observe(src int, t, rttMs float64, hit bool) {
	if d == nil {
		return
	}
	d.mu.Lock()
	s := d.sources[src]
	if s == nil {
		if len(d.sources) >= d.cfg.MaxSources {
			d.dropped++
			d.mu.Unlock()
			d.tm.dropped.Inc()
			return
		}
		s = d.newSourceLocked(src, t, t)
	} else {
		gap := t - s.lastT
		if gap >= 0 {
			s.gapN++
			delta := gap - s.gapMean
			s.gapMean += delta / float64(s.gapN)
			s.gapM2 += delta * (gap - s.gapMean)
			if s.gapN == 1 {
				s.ewmaMean, s.ewmaVar = gap, 0
			} else {
				diff := gap - s.ewmaMean
				incr := gapAlpha * diff
				s.ewmaMean += incr
				s.ewmaVar = (1 - gapAlpha) * (s.ewmaVar + diff*incr)
			}
			s.gap.Observe(gap)
		}
		if t > s.lastT {
			s.lastT = t
		}
	}
	s.obs++
	if !hit {
		s.misses++
	}
	s.win.observe(t)
	if !math.IsNaN(rttMs) {
		s.rtt.Observe(rttMs)
	}
	v, fired := d.scoreLocked(s, t)
	var cb func(Verdict)
	if fired {
		cb = d.onFlag
	}
	d.mu.Unlock()
	d.tm.observations.Inc()
	if fired {
		d.tm.flagCounter(v.Reason).Inc()
		if cb != nil {
			cb(v)
		}
	}
}

// ObserveRTT attributes a round-trip time to an already-tracked source
// without counting a controller-path event — the delivery-side hook for
// substrates where RTT is known only when the reply lands (netsim
// measures RTT at echo delivery, after the lookup was observed).
func (d *Detector) ObserveRTT(src int, rttMs float64) {
	if d == nil || math.IsNaN(rttMs) {
		return
	}
	d.mu.Lock()
	if s := d.sources[src]; s != nil {
		s.rtt.Observe(rttMs)
	}
	d.mu.Unlock()
}

// scoreLocked runs the three scorers over s and returns the verdict if
// this observation pushed the source over a threshold for the first
// time. Flags are sticky: a source flags at most once.
func (d *Detector) scoreLocked(s *sourceState, t float64) (Verdict, bool) {
	if s.obs < int64(d.cfg.MinObs) {
		return Verdict{}, false
	}
	score, reason := s.score, ""

	// Rate: windowed count vs Poisson expectation at the benign rate.
	lam := d.cfg.Baseline.rateFor(s.src)
	expect := lam * d.cfg.WindowSec
	if sd := math.Sqrt(math.Max(expect, 1)); sd > 0 {
		z := (float64(s.win.count(t)) - expect) / sd
		if n := z / d.cfg.RateZ; n > score {
			score, reason = n, ReasonRate
		}
	}

	// Regularity: exponentially-weighted inter-arrival CV far below the
	// Poisson CV of 1.
	if d.cfg.RegularityCVMax > 0 && s.gapN >= int64(d.cfg.MinGaps) {
		if cv := s.ewmaCV(); !math.IsNaN(cv) {
			n := d.cfg.RegularityCVMax / math.Max(cv, d.cfg.RegularityCVMax/64)
			if n > score {
				score, reason = n, ReasonRegularity
			}
		}
	}

	// Miss skew: binomial two-sided test of the hit/miss mix.
	if d.cfg.MissSkewZ > 0 {
		p := d.cfg.Baseline.missFracFor(s.src)
		if p > 0 && p < 1 {
			sd := math.Sqrt(p * (1 - p) / float64(s.obs))
			z := math.Abs(s.missFrac()-p) / sd
			if n := z / d.cfg.MissSkewZ; n > score {
				score, reason = n, ReasonMissSkew
			}
		}
	}

	if score <= s.score {
		return Verdict{}, false
	}
	s.score = score
	if s.flagged || score < 1 {
		return Verdict{}, false
	}
	s.flagged = true
	s.reason = reason
	s.flagT = t
	s.flagObs = s.obs
	d.flagged++
	v := Verdict{Source: s.src, T: t, Reason: reason, Score: score, Obs: s.obs}
	d.verdicts = append(d.verdicts, v)
	return v, true
}

// Score returns the source's current anomaly score (0 if untracked).
// Scores ≥ 1 are flagged.
func (d *Detector) Score(src int) float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.sources[src]; s != nil {
		return s.score
	}
	return 0
}

// IsFlagged reports whether src has been flagged, and with what verdict.
func (d *Detector) IsFlagged(src int) (Verdict, bool) {
	if d == nil {
		return Verdict{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.sources[src]
	if s == nil || !s.flagged {
		return Verdict{}, false
	}
	return Verdict{Source: s.src, T: s.flagT, Reason: s.reason, Score: s.score, Obs: s.flagObs}, true
}

// Verdicts returns a copy of all flag verdicts in flag order.
func (d *Detector) Verdicts() []Verdict {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Verdict, len(d.verdicts))
	copy(out, d.verdicts)
	return out
}

// Sources returns the number of tracked sources.
func (d *Detector) Sources() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sources)
}

// Merge folds other's per-source state into d: counts add, sketches and
// Welford moments merge, flags stay sticky (first flag wins), scores
// take the max. Sliding rate windows cover disjoint time axes across
// replicas and do not merge; the merged view exposes totals and timing
// shapes. This is how per-trial detector replicas aggregate into the
// session-wide /debug/detect view. other must not be observed, merged
// or reset while it merges; its sources are visited in source order
// through scratch it owns, so a warm Merge allocates nothing.
func (d *Detector) Merge(other *Detector) {
	if d == nil || other == nil || d == other {
		return
	}
	other.mu.Lock()
	states := other.sorted[:0]
	for _, s := range other.sources {
		states = append(states, s)
	}
	slices.SortFunc(states, func(a, b *sourceState) int { return cmp.Compare(a.src, b.src) })
	other.sorted = states
	droppedO := other.dropped
	other.mu.Unlock()

	var newFlags []string // reasons of flags first seen in this merge
	d.mu.Lock()
	d.dropped += droppedO
	for _, o := range states {
		s := d.sources[o.src]
		if s == nil {
			if len(d.sources) >= d.cfg.MaxSources {
				d.dropped++
				continue
			}
			s = d.newSourceLocked(o.src, o.firstT, o.lastT)
		}
		// Chan et al. parallel-variance combine for the gap moments.
		if o.gapN > 0 {
			n1, n2 := float64(s.gapN), float64(o.gapN)
			delta := o.gapMean - s.gapMean
			tot := n1 + n2
			s.gapMean += delta * n2 / tot
			s.gapM2 += o.gapM2 + delta*delta*n1*n2/tot
			s.gapN += o.gapN
		}
		// The EWMA moments fold as a count-weighted blend — approximate
		// (EWMAs over disjoint streams have no exact merge) but the
		// merged view only reports them, it never re-scores live.
		if o.gapN > 0 && s.gapN > o.gapN {
			w := float64(o.gapN) / float64(s.gapN)
			s.ewmaMean = (1-w)*s.ewmaMean + w*o.ewmaMean
			s.ewmaVar = (1-w)*s.ewmaVar + w*o.ewmaVar
		} else if o.gapN > 0 {
			s.ewmaMean, s.ewmaVar = o.ewmaMean, o.ewmaVar
		}
		s.obs += o.obs
		s.misses += o.misses
		s.rtt.Merge(&o.rtt)
		s.gap.Merge(&o.gap)
		if o.score > s.score {
			s.score = o.score
		}
		if o.flagged && !s.flagged {
			s.flagged = true
			s.reason = o.reason
			s.flagT = o.flagT
			s.flagObs = o.flagObs
			d.flagged++
			d.verdicts = append(d.verdicts, Verdict{Source: o.src, T: o.flagT, Reason: o.reason, Score: o.score, Obs: o.flagObs})
			newFlags = append(newFlags, o.reason)
		}
	}
	d.mu.Unlock()
	// Counter bumps happen outside the lock, same as Observe: a replica's
	// flag becomes visible on the aggregate's detect_flagged_total the
	// moment its trial assembles.
	for _, reason := range newFlags {
		d.tm.flagCounter(reason).Inc()
	}
}
