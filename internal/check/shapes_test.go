package check

import (
	"strings"
	"testing"

	"edm/internal/cluster"
	"edm/internal/metrics"
)

func TestFormatResultsNamesEveryShape(t *testing.T) {
	results := []ShapeResult{
		{Name: "fig6-hdf-erases", Detail: "fine"},
		{Name: "fig8-moved-ordering", Err: errFake},
	}
	out := FormatResults(results)
	for _, want := range []string{"fig6-hdf-erases", "FAIL fig8-moved-ordering", "ok   fig6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	if f := FirstFailure(results); f == nil || f.Name != "fig8-moved-ordering" {
		t.Fatalf("FirstFailure = %v", f)
	}
	if FirstFailure(results[:1]) != nil {
		t.Fatal("FirstFailure on a clean slice")
	}
}

var errFake = errDummy{}

type errDummy struct{}

func (errDummy) Error() string { return "fabricated failure" }

// The shape predicates are pure functions of run results, so each can be
// proven to fail on fabricated regressions — the intentional-bug
// demonstration at the golden-shape level.

func result(erases uint64, tput float64, moved int, blocked uint64, peaks ...float64) *cluster.Result {
	res := &cluster.Result{
		AggregateErases: erases,
		ThroughputOps:   tput,
		MovedObjects:    moved,
		BlockedOps:      blocked,
	}
	for i, p := range peaks {
		res.ResponseSeries = append(res.ResponseSeries, metrics.Point{Time: float64(i), Mean: p, Count: 1})
	}
	return res
}

func TestShapeWearVarianceFailsOnBalancedBaseline(t *testing.T) {
	flat := &cluster.Result{AggregateErases: 400, EraseCounts: []uint64{100, 100, 100, 100}}
	if s := shapeWearVariance(flat); s.Err == nil {
		t.Fatal("perfectly balanced wear accepted as Fig. 1's imbalance premise")
	}
	skewed := &cluster.Result{AggregateErases: 400, EraseCounts: []uint64{10, 40, 250, 100}}
	if s := shapeWearVariance(skewed); s.Err != nil {
		t.Fatalf("skewed baseline rejected: %v", s.Err)
	}
}

func TestShapeThroughputFailsOnRegression(t *testing.T) {
	if s := shapeThroughput(result(0, 1000, 0, 0), result(0, 999, 0, 0)); s.Err == nil {
		t.Fatal("HDF throughput below baseline accepted")
	}
	if s := shapeThroughput(result(0, 1000, 0, 0), result(0, 1100, 0, 0)); s.Err != nil {
		t.Fatalf("HDF throughput win rejected: %v", s.Err)
	}
}

func TestShapeErasesFailsOnRegression(t *testing.T) {
	base := result(1000, 0, 0, 0)
	if s := shapeErases(base, result(1200, 0, 0, 0), result(1300, 0, 0, 0)); s.Err == nil {
		t.Fatal("HDF erases 20% above baseline accepted")
	}
	if s := shapeErases(base, result(990, 0, 0, 0), result(980, 0, 0, 0)); s.Err == nil {
		t.Fatal("HDF erases above CMT accepted")
	}
	if s := shapeErases(base, result(990, 0, 0, 0), result(1100, 0, 0, 0)); s.Err != nil {
		t.Fatalf("healthy erase ordering rejected: %v", s.Err)
	}
}

func TestShapeBlockingSpikeFailsWithoutSpike(t *testing.T) {
	base := result(0, 0, 0, 0, 0.01, 0.02, 0.01)
	if s := shapeBlockingSpike(base, result(0, 0, 0, 7, 0.01, 0.015, 0.01)); s.Err == nil {
		t.Fatal("HDF timeline without a spike accepted")
	}
	if s := shapeBlockingSpike(base, result(0, 0, 0, 0, 0.01, 0.05, 0.01)); s.Err == nil {
		t.Fatal("HDF run that never parked a request accepted")
	}
	if s := shapeBlockingSpike(base, result(0, 0, 0, 7, 0.01, 0.05, 0.01)); s.Err != nil {
		t.Fatalf("healthy spike rejected: %v", s.Err)
	}
}

func TestShapeMovedOrderingFailsOnInversion(t *testing.T) {
	objects := 1000
	cases := []struct {
		name          string
		cmt, cdf, hdf int
		wantErr       bool
	}{
		{"healthy", 15, 11, 7, false},
		{"hdf moved nothing", 15, 11, 0, true},
		{"cdf not above hdf", 15, 7, 7, true},
		{"cmt not above cdf", 11, 11, 7, true},
		{"cmt mass movement", 100, 11, 7, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := shapeMovedOrdering(result(0, 0, tc.cmt, 0), result(0, 0, tc.cdf, 0), result(0, 0, tc.hdf, 0), objects)
			if (s.Err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want failure = %v", s.Err, tc.wantErr)
			}
		})
	}
}
