package detect

import "math"

// The streaming primitives of the detector: a fixed log-bucket histogram
// sketch for timing observations (RTTs, inter-arrival gaps) and a
// ring-bucket sliding-window counter for probe rates. Both are sized at
// construction, update with pure arithmetic, and allocate nothing on the
// observation path — the properties that let the detector ride the
// controller hot path at line rate ("Reinventing NetFlow for OpenFlow
// SDN" fixes that bar: flow-level measurement must be cheap enough to
// run inline).

// sketchBuckets is the fixed bucket count of a Sketch: 2 buckets per
// octave over 24 octaves starting at sketchMin.
const (
	sketchBuckets    = 48
	sketchPerOctave  = 2
	sketchMin        = 1e-3 // smallest distinguishable value (1 µs in ms units, 1 ms in s units)
	sketchUnderflow  = 0    // values below sketchMin land here
	sketchOverflowIx = sketchBuckets - 1
)

// Sketch is a compact online histogram over positive values with
// logarithmic buckets (2 per octave): relative error is bounded by the
// octave split everywhere in the 7-decade range, the footprint is fixed
// at construction, Observe is allocation-free, and two sketches merge by
// bucket-wise addition — which is how per-trial detector replicas fold
// into one session view.
type Sketch struct {
	counts [sketchBuckets]uint32
	n      uint64
	sum    float64
}

// sketchBucket maps a value to its bucket index.
func sketchBucket(v float64) int {
	if !(v > sketchMin) { // catches NaN, zero, negatives, and underflow
		return sketchUnderflow
	}
	ix := int(sketchPerOctave * math.Log2(v/sketchMin))
	if ix < 0 {
		return sketchUnderflow
	}
	if ix > sketchOverflowIx {
		return sketchOverflowIx
	}
	return ix
}

// sketchValue returns the geometric midpoint of bucket ix, the value a
// quantile estimate reports for mass in that bucket.
func sketchValue(ix int) float64 {
	lo := sketchMin * math.Pow(2, float64(ix)/sketchPerOctave)
	hi := sketchMin * math.Pow(2, float64(ix+1)/sketchPerOctave)
	return math.Sqrt(lo * hi)
}

// Observe folds one value into the sketch. NaN and non-positive values
// are counted in the underflow bucket (they carry no timing information
// but must not desynchronize N from the per-source observation count).
func (s *Sketch) Observe(v float64) {
	s.counts[sketchBucket(v)]++
	s.n++
	if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		s.sum += v
	}
}

// N returns the number of observed values.
func (s *Sketch) N() uint64 { return s.n }

// Mean returns the exact running mean (0 with no observations).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Quantile returns the approximate q-quantile (q in [0,1]); 0 with no
// observations. The estimate is the geometric midpoint of the bucket
// holding the q-th observation.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.n-1))
	var seen uint64
	for ix, c := range s.counts {
		seen += uint64(c)
		if seen > rank {
			if ix == sketchUnderflow {
				return 0
			}
			return sketchValue(ix)
		}
	}
	return sketchValue(sketchOverflowIx)
}

// Merge adds other's buckets into s.
func (s *Sketch) Merge(other *Sketch) {
	for i := range s.counts {
		s.counts[i] += other.counts[i]
	}
	s.n += other.n
	s.sum += other.sum
}

// rateWindow is a sliding-window event counter: the window is split into
// a ring of equal-width buckets, the bucket under the current time
// advances (zeroing skipped buckets) as observations arrive, and the
// window count is the running sum of live buckets. Rotation and count
// are O(buckets) worst case, O(1) amortized, and allocation-free after
// construction.
type rateWindow struct {
	counts []uint32
	width  float64 // bucket width in seconds
	cur    int     // ring index of the bucket containing curStart
	start  float64 // start time of the current bucket
	total  uint32  // sum of counts
	primed bool
}

// reset empties the window and sizes it to buckets buckets spanning
// windowSec seconds, reusing the bucket storage it already has when that
// is large enough.
func (w *rateWindow) reset(windowSec float64, buckets int) {
	counts := w.counts
	if cap(counts) < buckets {
		counts = make([]uint32, buckets)
	} else {
		counts = counts[:buckets]
		clear(counts)
	}
	*w = rateWindow{counts: counts, width: windowSec / float64(buckets)}
}

// advance rotates the ring forward so the current bucket covers t.
// Out-of-order times earlier than the current bucket are credited to the
// current bucket (the stream is near-monotone on every substrate).
func (w *rateWindow) advance(t float64) {
	if !w.primed {
		w.primed = true
		w.start = t
		return
	}
	steps := int((t - w.start) / w.width)
	if steps <= 0 {
		return
	}
	if steps >= len(w.counts) {
		// The whole window elapsed: clear everything.
		for i := range w.counts {
			w.counts[i] = 0
		}
		w.total = 0
		w.cur = 0
		w.start = t
		return
	}
	for i := 0; i < steps; i++ {
		w.cur++
		if w.cur == len(w.counts) {
			w.cur = 0
		}
		w.total -= w.counts[w.cur]
		w.counts[w.cur] = 0
		w.start += w.width
	}
}

// observe counts one event at time t.
func (w *rateWindow) observe(t float64) {
	w.advance(t)
	w.counts[w.cur]++
	w.total++
}

// count returns the number of events inside the window ending at t.
func (w *rateWindow) count(t float64) uint32 {
	w.advance(t)
	return w.total
}

// windowSec returns the configured window width in seconds.
func (w *rateWindow) windowSec() float64 { return w.width * float64(len(w.counts)) }
