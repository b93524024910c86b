package check

import (
	"fmt"

	"edm/internal/cluster"
	"edm/internal/metrics"
)

// ShapeResult is one golden shape's verdict. Detail reports the measured
// numbers even on success, so a drifting margin is visible before it
// crosses the threshold.
type ShapeResult struct {
	Name   string
	Detail string
	Err    error
}

func (s ShapeResult) String() string {
	if s.Err != nil {
		return fmt.Sprintf("FAIL %s: %v", s.Name, s.Err)
	}
	return fmt.Sprintf("ok   %s: %s", s.Name, s.Detail)
}

// FirstFailure returns the first failing shape, or nil when all hold.
func FirstFailure(results []ShapeResult) *ShapeResult {
	for i := range results {
		if results[i].Err != nil {
			return &results[i]
		}
	}
	return nil
}

// FormatResults renders the suite outcome, one line per shape.
func FormatResults(results []ShapeResult) string {
	out := "Golden shapes (DESIGN.md §3):\n"
	for _, s := range results {
		out += "  " + s.String() + "\n"
	}
	return out
}

// FigureShapes asserts DESIGN.md §3's five figure shapes over the
// golden suite's four runs of one workload (baseline and the three
// migration policies); objects is the workload's total object count
// (files × k). The suite that produces the runs is experiment.Golden.
func FigureShapes(base, hdf, cdf, cmt *cluster.Result, objects int) []ShapeResult {
	return []ShapeResult{
		shapeWearVariance(base),
		shapeThroughput(base, hdf),
		shapeErases(base, hdf, cmt),
		shapeBlockingSpike(base, hdf),
		shapeMovedOrdering(cmt, cdf, hdf, objects),
	}
}

// shapeWearVariance is Fig. 1: under hash placement alone, skewed write
// traffic leaves the per-SSD erase counts visibly imbalanced — the
// problem EDM exists to fix.
func shapeWearVariance(base *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig1-wear-variance"}
	rsd := rsdOfCounts(base.EraseCounts)
	s.Detail = fmt.Sprintf("baseline erase RSD %.3f, %d erases", rsd, base.AggregateErases)
	switch {
	case base.AggregateErases == 0:
		s.Err = fmt.Errorf("no erases measured — workload too light to exercise GC")
	case rsd < 0.05:
		s.Err = fmt.Errorf("baseline erase RSD %.3f below 0.05: hash placement looks balanced, Fig. 1's premise is gone", rsd)
	}
	return s
}

// shapeThroughput is Fig. 5: migrating hot data to cold devices
// improves aggregate throughput over the baseline.
func shapeThroughput(base, hdf *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig5-throughput"}
	s.Detail = fmt.Sprintf("baseline %.1f ops/s, HDF %.1f ops/s (%+.1f%%)",
		base.ThroughputOps, hdf.ThroughputOps,
		(hdf.ThroughputOps/base.ThroughputOps-1)*100)
	if hdf.ThroughputOps <= base.ThroughputOps {
		s.Err = fmt.Errorf("HDF throughput %.1f ops/s not above baseline %.1f ops/s",
			hdf.ThroughputOps, base.ThroughputOps)
	}
	return s
}

// shapeErases is Fig. 6: HDF is the erase-friendliest policy — its
// aggregate erases come in strictly below CMT's (DESIGN.md: "up to ~40%
// vs CMT"; CMT chases load, not wear, and often increases erases) and
// never materially above the baseline's.
func shapeErases(base, hdf, cmt *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig6-hdf-erases"}
	s.Detail = fmt.Sprintf("erases: baseline %d, HDF %d, CMT %d",
		base.AggregateErases, hdf.AggregateErases, cmt.AggregateErases)
	switch {
	case hdf.AggregateErases >= cmt.AggregateErases:
		s.Err = fmt.Errorf("HDF aggregate erases %d not below CMT's %d",
			hdf.AggregateErases, cmt.AggregateErases)
	case float64(hdf.AggregateErases) > float64(base.AggregateErases)*1.02:
		s.Err = fmt.Errorf("HDF aggregate erases %d more than 2%% above baseline %d",
			hdf.AggregateErases, base.AggregateErases)
	}
	return s
}

// shapeBlockingSpike is Fig. 7: HDF's §V.D request blocking produces a
// response-time spike during the migration window that the baseline
// timeline does not show.
func shapeBlockingSpike(base, hdf *cluster.Result) ShapeResult {
	s := ShapeResult{Name: "fig7-hdf-spike"}
	basePeak := peakMean(base.ResponseSeries)
	hdfPeak := peakMean(hdf.ResponseSeries)
	s.Detail = fmt.Sprintf("peak bucket mean: baseline %.2gs, HDF %.2gs, %d blocked ops",
		basePeak, hdfPeak, hdf.BlockedOps)
	switch {
	case hdf.BlockedOps == 0:
		s.Err = fmt.Errorf("no operations parked on HDF locks — §V.D blocking never engaged")
	case hdfPeak <= basePeak:
		s.Err = fmt.Errorf("HDF peak response %.4gs not above baseline peak %.4gs", hdfPeak, basePeak)
	}
	return s
}

// shapeMovedOrdering is Fig. 8: migration cost ordering CMT > CDF > HDF
// (load balancing relocates more than wear balancing), with every policy
// moving only a tiny fraction of the object population.
func shapeMovedOrdering(cmt, cdf, hdf *cluster.Result, objects int) ShapeResult {
	s := ShapeResult{Name: "fig8-moved-ordering"}
	frac := func(moved int) float64 { return float64(moved) / float64(objects) * 100 }
	s.Detail = fmt.Sprintf("moved CMT %d (%.2f%%), CDF %d (%.2f%%), HDF %d (%.2f%%) of %d objects",
		cmt.MovedObjects, frac(cmt.MovedObjects),
		cdf.MovedObjects, frac(cdf.MovedObjects),
		hdf.MovedObjects, frac(hdf.MovedObjects), objects)
	switch {
	case hdf.MovedObjects < 1:
		s.Err = fmt.Errorf("HDF midpoint shuffle moved nothing")
	case cdf.MovedObjects <= hdf.MovedObjects:
		s.Err = fmt.Errorf("CDF moved %d objects, not above HDF's %d", cdf.MovedObjects, hdf.MovedObjects)
	case cmt.MovedObjects <= cdf.MovedObjects:
		s.Err = fmt.Errorf("CMT moved %d objects, not above CDF's %d", cmt.MovedObjects, cdf.MovedObjects)
	case frac(cmt.MovedObjects) > 2.5:
		s.Err = fmt.Errorf("CMT moved %.2f%% of objects — far beyond the paper's ~1.5%% ceiling", frac(cmt.MovedObjects))
	}
	return s
}

// peakMean returns the largest bucket mean of a response timeline.
func peakMean(points []metrics.Point) float64 {
	peak := 0.0
	for _, p := range points {
		if p.Mean > peak {
			peak = p.Mean
		}
	}
	return peak
}

// rsdOfCounts is the relative standard deviation of per-device counters.
func rsdOfCounts(counts []uint64) float64 {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return metrics.RSD(vals)
}
