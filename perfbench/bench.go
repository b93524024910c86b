package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"edm"
)

// workload is one benchmark traffic mix. setup builds whatever the
// timed units need and runs the untimed warm-up unit, returning its
// simulation results; it is repeated (each call replacing the previous
// state) so setup_s is a median.
// unit runs one timed unit, timing only the part a user waits on and
// checking its outputs outside the timer.
type workload interface {
	setup(ctx context.Context, b *bench, warmSeed uint64) ([]*edm.Result, error)
	unit(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error)
	close()
}

// unitOut is what one timed unit reports back to the run loop.
type unitOut struct {
	runS    float64       // host seconds the unit took
	results []*edm.Result // the unit's simulation results
	bad     int           // results that failed their output check
}

// bench is one run of one workload.
type bench struct {
	seconds float64
	nproc   int
	chk     *checker
	tr      *tracer // nil in the untraced run

	// minUnits is the number of timed units every run completes even
	// past its time budget.
	minUnits int

	setupS     []float64
	runS       []float64 // untraced units
	tracedRunS []float64 // traced units (trace run only)
	allocMB    []float64
	// warm holds the warm-up units' results. Warm-up seeds are fixed,
	// so the sim_* metrics read from them are exact for given code: a
	// pure speed-up leaves them identical, a model change moves them.
	warm []*edm.Result

	mu        sync.Mutex
	samples   map[string][]float64 // workload-specific timings (resume_s, interactive_s, ...)
	counts    map[string]float64   // per-layer counters, summed over traced units
	failures  []string
	attempted int // timed units plus, on serve, interactive requests
	failed    int
	units     int // timed units
	tracedN   int
}

type simStats struct{ throughput, erases, rsd float64 }

func newBench(seconds float64, nproc int, chk *checker, traced bool, minUnits int) *bench {
	b := &bench{
		seconds: seconds, nproc: nproc, chk: chk, minUnits: minUnits,
		samples: map[string][]float64{}, counts: map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], v)
	b.mu.Unlock()
}

func (b *bench) count(name string, v float64) {
	b.mu.Lock()
	b.counts[name] += v
	b.mu.Unlock()
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// run drives one workload: repeated set-up, then timed units until the
// time budget is spent (and at least minUnits ran), or the seed pool
// is exhausted. In the traced run units alternate traced/untraced, so
// the run measures its own tracing overhead.
func (b *bench) run(ctx context.Context, w workload, plan seedPlan) error {
	if err := plan.validate(); err != nil {
		return err
	}
	defer w.close()
	for _, ws := range plan.warm {
		t0, ref0 := time.Now(), b.chk.refSpent()
		rs, err := w.setup(ctx, b, ws)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, (time.Since(t0) - (b.chk.refSpent() - ref0)).Seconds())
		b.warm = append(b.warm, rs...)
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	defer func() {
		runtime.ReadMemStats(&gc1)
		b.counts["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	}()
	start := time.Now()
	budget := time.Duration(b.seconds * float64(time.Second))
	for u, seed := range plan.timed {
		if u >= b.minUnits && time.Since(start) >= budget {
			break
		}
		traced := b.tr != nil && u%2 == 0
		// Start every unit from a collected heap, as a fresh process
		// would, so garbage left by the previous unit does not shift
		// this one's collections.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := w.unit(ctx, b, u, seed, traced)
		runtime.ReadMemStats(&m1)
		b.mu.Lock()
		b.attempted++
		b.units++
		b.mu.Unlock()
		if err != nil || out.bad > 0 {
			b.mu.Lock()
			b.failed++
			b.mu.Unlock()
		}
		if err != nil {
			b.fail("unit %d (seed %d): %v", u, seed, err)
			continue
		}
		if traced {
			b.tracedRunS = append(b.tracedRunS, out.runS)
			b.tracedN++
		} else {
			b.runS = append(b.runS, out.runS)
		}
		b.allocMB = append(b.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return nil
}

// simOf averages the simulated Fig. 5/6 metrics over runs.
func simOf(rs []*edm.Result) simStats {
	var s simStats
	for _, r := range rs {
		s.throughput += r.ThroughputOps
		s.erases += float64(r.AggregateErases)
		s.rsd += rsd(r.EraseCounts)
	}
	n := float64(len(rs))
	if n > 0 {
		s.throughput /= n
		s.erases /= n
		s.rsd /= n
	}
	return s
}

// rsd is the relative standard deviation (population) of per-OSD
// erase counts: the wear balance EDM exists for.
func rsd(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		d := float64(x) - mean
		v += d * d
	}
	return math.Sqrt(v/float64(len(xs))) / mean
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
