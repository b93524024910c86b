package experiment

import (
	"fmt"

	"edm/internal/check"
	"edm/internal/cluster"
	"edm/internal/sim"
)

// goldenTrace is the golden suite's workload: home02, the paper's most
// skewed trace and the one every figure leads with.
const goldenTrace = "home02"

// Golden runs the golden-shape regression suite: the four policies on
// goldenTrace at opts' first cluster size, every run checked, then
// DESIGN.md §3's expected shapes as assertions over the results. The
// first shape, invariants, holds when every checked run came back
// without an error; if one did not, it is the only shape returned,
// since the figure shapes need all four results. FirstFailure picks
// the verdict.
func Golden(opts Options) []check.ShapeResult {
	opts = opts.withDefaults()
	opts.Check = true
	opts.expLabel = "golden"
	osds := opts.OSDCounts[0]
	results := make([]*cluster.Result, len(AllPolicies))
	errs := make([]error, len(AllPolicies))
	jobs := make([]func(), len(AllPolicies))
	for i, p := range AllPolicies {
		i, spec := i, opts.cell(goldenTrace, osds, p).Spec()
		// Fine response buckets so the Fig. 7 blocking spike is visible
		// on a small scaled run (the default 3min bucket averages it
		// away).
		spec.Cluster.ResponseBucket = sim.Second / 2
		jobs[i] = func() { results[i], errs[i] = run(opts, runLabel(opts.expLabel, spec), spec) }
	}
	pool(opts.Parallelism, jobs)

	inv := check.ShapeResult{Name: "invariants", Detail: fmt.Sprintf("%d checked runs, no violations", len(AllPolicies))}
	for i, err := range errs {
		if err != nil {
			inv.Err = fmt.Errorf("%s run: %w", AllPolicies[i], err)
			return []check.ShapeResult{inv}
		}
	}
	tr, err := cachedTrace(opts.cell(goldenTrace, osds, HDF).Spec())
	if err != nil {
		inv.Err = err
		return []check.ShapeResult{inv}
	}
	objects := len(tr.Files) * 4 // k defaults to the paper's 4
	by := make(map[Policy]*cluster.Result, len(AllPolicies))
	for i, p := range AllPolicies {
		by[p] = results[i]
	}
	return append([]check.ShapeResult{inv},
		check.FigureShapes(by[Baseline], by[HDF], by[CDF], by[CMT], objects)...)
}
