package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Started() {
		t.Fatal("fresh EWMA reports Started")
	}
	e.Observe(10)
	if !e.Started() || e.Value() != 10 {
		t.Fatalf("after first observation: started=%v value=%v", e.Started(), e.Value())
	}
}

func TestEWMASmoothing(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA(0.5) of 10,20 = %v, want 15", e.Value())
	}
	e.Observe(15)
	if e.Value() != 15 {
		t.Fatalf("EWMA stable input moved: %v", e.Value())
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	e.Observe(100)
	for i := 0; i < 200; i++ {
		e.Observe(5)
	}
	if math.Abs(e.Value()-5) > 1e-6 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v must panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
	NewEWMA(1) // boundary is legal
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.Count() != 8 {
		t.Fatalf("count %d", r.Count())
	}
	if r.Mean() != 5 {
		t.Fatalf("mean %v", r.Mean())
	}
	if r.StdDev() != 2 {
		t.Fatalf("stddev %v, want 2", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max %v/%v", r.Min(), r.Max())
	}
	if r.Sum() != 40 {
		t.Fatalf("sum %v", r.Sum())
	}
	if math.Abs(r.RSD()-0.4) > 1e-12 {
		t.Fatalf("rsd %v, want 0.4", r.RSD())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.RSD() != 0 || r.Count() != 0 {
		t.Fatal("zero-value Running must report zeros")
	}
}

func TestRSDHelper(t *testing.T) {
	if got := RSD([]float64{1, 1, 1}); got != 0 {
		t.Fatalf("RSD of constants = %v", got)
	}
	if got := RSD(nil); got != 0 {
		t.Fatalf("RSD of empty = %v", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1,2,3]) != 2")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertyRunningMatchesNaive(t *testing.T) {
	f := func(xsRaw []int16) bool {
		if len(xsRaw) == 0 {
			return true
		}
		xs := make([]float64, len(xsRaw))
		var r Running
		var sum float64
		for i, v := range xsRaw {
			xs[i] = float64(v)
			r.Observe(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(len(xs))
		var varSum float64
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		variance := varSum / float64(len(xs))
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Variance()-variance) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(0.99); q != 99 {
		t.Fatalf("p99 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	var h Histogram
	h.Observe(7)
	// With one sample, every quantile is that sample.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
	if h.Count() != 1 || h.Mean() != 7 {
		t.Errorf("count %d mean %v, want 1 and 7", h.Count(), h.Mean())
	}
}

func TestHistogramAllEqualQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 42; i++ {
		h.Observe(3.5)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3.5 {
			t.Errorf("all-equal Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	if m := h.Mean(); m != 3.5 {
		t.Errorf("all-equal mean = %v, want 3.5", m)
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	var h Histogram
	h.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("quantile > 1 must panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Quantile(0.5)
	h.Observe(1) // later samples must count in later queries
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("histogram stale after post-quantile observe: p0=%v", q)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		lo, hi := math.Inf(1), math.Inf(-1)
		n := rnd.Intn(200) + 1
		for i := 0; i < n; i++ {
			x := rnd.NormFloat64() * 100
			h.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v", q)
			}
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("quantile %v outside [%v,%v]", v, lo, hi)
			}
			prev = v
		}
	}
}

// sortedRank is the reference nearest-rank quantile: sort a copy and
// index it.
func sortedRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// Property: Quantile equals the sort-based nearest rank on NaN-free
// inputs, across sizes on both sides of selectSort and across value
// mixes that stress the key mapping: duplicates, negatives, ±0,
// subnormals, infinities and one-bucket clusters.
func TestPropertyQuantileMatchesSortedRank(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	gens := map[string]func() float64{
		"normal":     func() float64 { return rnd.NormFloat64() * 1e3 },
		"duplicates": func() float64 { return float64(rnd.Intn(5)) - 2 },
		"zeros": func() float64 {
			return []float64{0, math.Copysign(0, -1), 1, -1}[rnd.Intn(4)]
		},
		"subnormal": func() float64 {
			return math.SmallestNonzeroFloat64 * float64(rnd.Intn(100)-50)
		},
		"extremes": func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64,
				-math.MaxFloat64, 0, 1e-300}[rnd.Intn(6)]
		},
		"one-bucket": func() float64 { return 1 + rnd.Float64()/32 },
		"latency":    func() float64 { return rnd.ExpFloat64() * 1e-3 },
	}
	sizes := []int{1, 2, 3, 17, 100, selectSort, selectSort + 1, 20000}
	qs := []float64{0, 0.01, 0.5, 0.99, 1}
	for name, gen := range gens {
		for _, n := range sizes {
			var h Histogram
			for i := 0; i < n; i++ {
				h.Observe(gen())
			}
			for _, q := range qs {
				want := sortedRank(h.Samples(), q)
				if got := h.Quantile(q); got != want {
					t.Fatalf("%s n=%d: Quantile(%v) = %v, sorted rank %v", name, n, q, got, want)
				}
			}
		}
	}
}

// Regression: Quantile used to sort the samples in place, so Samples()
// order (and the summation order of Mean) depended on whether anyone
// had asked for a percentile first.
func TestQuantileKeepsObservationOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 3 * selectSort} {
		var h Histogram
		for i := 0; i < n; i++ {
			h.Observe(rnd.ExpFloat64())
		}
		before := append([]float64(nil), h.Samples()...)
		mean := h.Mean()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			h.Quantile(q)
		}
		for i, x := range h.Samples() {
			if math.Float64bits(x) != math.Float64bits(before[i]) {
				t.Fatalf("n=%d: sample %d changed from %v to %v after Quantile", n, i, before[i], x)
			}
		}
		if got := h.Mean(); got != mean {
			t.Fatalf("n=%d: mean %v after Quantile, %v before", n, got, mean)
		}
	}
}

// NaN is outside Quantile's contract (response times never are NaN),
// but its behaviour is pinned: NaNs order by their bits, so a positive
// NaN ranks above +Inf rather than first as in sort.Float64s.
func TestQuantileNaNOrdersAboveInf(t *testing.T) {
	var h Histogram
	for _, x := range []float64{math.NaN(), 1, math.Inf(1), -1} {
		h.Observe(x)
	}
	if got := h.Quantile(0); got != -1 {
		t.Errorf("p0 = %v, want -1", got)
	}
	if got := h.Quantile(0.75); !math.IsInf(got, 1) {
		t.Errorf("p75 = %v, want +Inf", got)
	}
	if got := h.Quantile(1); !math.IsNaN(got) {
		t.Errorf("p100 = %v, want NaN", got)
	}
}

func TestHistogramGrowKeepsSamples(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Grow(100)
	if cap(h.Samples()) < 101 || h.Count() != 1 || h.Samples()[0] != 2 {
		t.Fatalf("after Grow(100): len %d cap %d", h.Count(), cap(h.Samples()))
	}
	buf := h.Buffer()
	h.Grow(50) // already room: the buffer stays
	if &h.Samples()[0] != &buf[0] {
		t.Fatal("Grow reallocated a buffer that already had room")
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Observe(0, 1)
	ts.Observe(9.99, 3)
	ts.Observe(10, 10)
	ts.Observe(25, 7)
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].Time != 0 || pts[0].Mean != 2 || pts[0].Count != 2 {
		t.Fatalf("bucket 0: %+v", pts[0])
	}
	if pts[1].Time != 10 || pts[1].Mean != 10 {
		t.Fatalf("bucket 1: %+v", pts[1])
	}
	if pts[2].Time != 20 || pts[2].Mean != 7 {
		t.Fatalf("bucket 2: %+v", pts[2])
	}
}

func TestTimeSeriesPointsSorted(t *testing.T) {
	ts := NewTimeSeries(1)
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		ts.Observe(tm, tm)
	}
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatal("points not sorted by time")
		}
	}
}

func TestTimeSeriesWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive width must panic")
		}
	}()
	NewTimeSeries(0)
}
