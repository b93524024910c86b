// Package metrics provides the statistical primitives used throughout the
// EDM simulator: exponentially weighted moving averages (the CMT load
// factor), running mean/variance (wear-imbalance trigger), streaming
// histograms with percentiles (response times), and time-bucketed series
// (the Fig. 7 response-time timeline).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// EWMA is an exponentially weighted moving average. The zero value is not
// usable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(x float64) {
	if !e.started {
		e.value = x
		e.started = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Started reports whether at least one sample has been observed.
func (e *EWMA) Started() bool { return e.started }

// Running accumulates count, mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Observe adds a sample.
func (r *Running) Observe(x float64) {
	r.n++
	r.sum += x
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count returns the number of samples.
func (r *Running) Count() int64 { return r.n }

// Sum returns the sum of samples.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// Variance returns the population variance.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// RSD returns the relative standard deviation (stddev / mean), the wear
// imbalance measure in the EDM trigger condition. It returns 0 when the
// mean is 0.
func (r *Running) RSD() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.StdDev() / r.mean
}

// RSD computes the relative standard deviation of a slice in one pass.
func RSD(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Observe(x)
	}
	return r.RSD()
}

// Mean computes the arithmetic mean of a slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Histogram collects samples for percentile queries. It stores raw
// values; simulation runs produce at most a few million samples, well
// within memory for the experiment scale.
type Histogram struct {
	xs []float64
}

// Observe adds a sample.
func (h *Histogram) Observe(x float64) { h.xs = append(h.xs, x) }

// Grow reserves room for n more samples, so a run that knows its sample
// count up front fills the buffer without regrowing it. A buffer that
// already has the room is kept as it is.
func (h *Histogram) Grow(n int) { h.xs = slices.Grow(h.xs, n) }

// Reset clears the histogram and adopts buf's backing storage for
// subsequent samples, letting a harness recycle sample buffers across
// runs instead of regrowing them.
func (h *Histogram) Reset(buf []float64) { h.xs = buf[:0] }

// Buffer surrenders the sample buffer for recycling via Reset on another
// histogram. The histogram must not be used afterwards.
func (h *Histogram) Buffer() []float64 { return h.xs }

// Samples exposes the raw sample slice, in observation order, for
// read-only inspection (state digests).
func (h *Histogram) Samples() []float64 { return h.xs }

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.xs) }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 { return Mean(h.xs) }

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples. It returns 0 with no samples.
//
// The samples are left in observation order: Quantile selects instead
// of sorting. It fixes the answer's order-preserving key (floatKey) an
// 11-bit digit at a time, most significant first, by counting the
// samples that share the digits fixed so far, until at most selectSort
// of them remain; those few keys are then sorted. A spread-out
// distribution takes two or three passes over the samples, and the
// result is the exact sample, bit for bit. NaN samples, which response
// times never are, order by their bits: NaNs with the sign bit clear
// rank above +Inf and the others below −Inf. ±0 are ordered −0 < +0; as
// values they compare equal.
func (h *Histogram) Quantile(q float64) float64 {
	n := len(h.xs)
	if n == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	// The answer's key has prefix as its top fixed bits, and m samples
	// share them; rank counts within those m. (A shift by 64 is 0 in
	// Go, so the empty prefix matches every key.)
	var counts [1 << digitBits]uint32
	prefix, fixed, m := uint64(0), 0, n
	for m > selectSort {
		if fixed == 64 {
			return keyFloat(prefix) // m equal keys
		}
		width := min(digitBits, 64-fixed)
		shift := 64 - fixed - width
		clear(counts[:])
		for _, x := range h.xs {
			if k := floatKey(x); k>>(64-fixed) == prefix {
				counts[k>>shift&(1<<width-1)]++
			}
		}
		d := 0
		for ; rank >= int(counts[d]); d++ {
			rank -= int(counts[d])
		}
		prefix = prefix<<width | uint64(d)
		fixed += width
		m = int(counts[d])
	}
	keys := make([]uint64, 0, m)
	for _, x := range h.xs {
		if k := floatKey(x); k>>(64-fixed) == prefix {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keyFloat(keys[rank])
}

// digitBits is the width of the key digit one Quantile pass fixes; its
// count table (8 KB) stays on the stack.
const digitBits = 11

// selectSort is the number of candidate samples at or below which
// Quantile stops counting digits and sorts their keys.
const selectSort = 1 << 10

// floatKey maps a float64 to a uint64 whose unsigned order is the
// float's numeric order: negative values have every bit flipped,
// non-negative ones only the sign bit.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// TimeSeries buckets (t, value) observations into fixed-width windows and
// reports the per-window mean — exactly the "average response time of
// file operations served in the past 3 minutes" presentation of Fig. 7.
type TimeSeries struct {
	width   float64
	buckets map[int64]*Running
}

// NewTimeSeries creates a series with the given bucket width (same unit
// as the observation timestamps; EDM uses seconds).
func NewTimeSeries(width float64) *TimeSeries {
	if width <= 0 {
		panic("metrics: non-positive TimeSeries width")
	}
	return &TimeSeries{width: width, buckets: make(map[int64]*Running)}
}

// Observe records value at time t.
func (ts *TimeSeries) Observe(t, value float64) {
	b := int64(math.Floor(t / ts.width))
	r := ts.buckets[b]
	if r == nil {
		r = &Running{}
		ts.buckets[b] = r
	}
	r.Observe(value)
}

// Point is one bucket of a time series.
type Point struct {
	Time  float64 // bucket start time
	Mean  float64
	Count int64
}

// Points returns the buckets in time order.
func (ts *TimeSeries) Points() []Point {
	keys := make([]int64, 0, len(ts.buckets))
	for k := range ts.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	pts := make([]Point, len(keys))
	for i, k := range keys {
		r := ts.buckets[k]
		pts[i] = Point{Time: float64(k) * ts.width, Mean: r.Mean(), Count: r.Count()}
	}
	return pts
}
