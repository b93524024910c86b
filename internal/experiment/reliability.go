package experiment

import (
	"fmt"
	"strings"

	"edm/internal/cluster"
	"edm/internal/lifetime"
)

// ReliabilityResult is the §III.D endurance analysis: measured per-device
// wear from the simulations projected against a P/E budget, the
// simultaneous wear-out risk of each policy, and the structural
// staggering comparison (uniform groups vs §III.D's differentiated group
// sizes vs Diff-RAID's write-ratio skew).
type ReliabilityResult struct {
	Trace       string
	OSDs        int
	Budget      float64
	Coincidence float64

	// Per-policy projections from the measured wear.
	Policies []ReliabilityRow

	// Structural comparison (analytical, per §III.D's model).
	UniformRisk  lifetime.RiskReport
	StaggerSizes []int
	StaggerRisk  lifetime.RiskReport
	DiffRAIDRisk lifetime.RiskReport
	DiffRAIDLoad float64 // max/mean write-weight imbalance

	// Simulated staggering: the same workload replayed with the
	// §III.D group sizes actually configured (group-rotate placement,
	// EDM-HDF migration). MeasuredGroupWear is the mean per-device
	// erase count of each group — distinct values demonstrate the
	// wear-speed differentiation inside the full simulator.
	MeasuredGroupWear []float64
	SimThroughput     float64
	UniformThroughput float64
}

// ReliabilityRow is one policy's wear-out projection summary.
type ReliabilityRow struct {
	Policy       Policy
	FirstDeath   float64 // windows until the earliest device wears out
	LastDeath    float64
	RiskFraction float64 // coincident cross-group pairs / all cross-group pairs
	Err          error
}

// Reliability runs the four policies on one trace, measures per-device
// wear, and projects it against the P/E budget; then contrasts the
// uniform-group, staggered-group and Diff-RAID reliability structures.
func Reliability(opts Options) (*ReliabilityResult, error) {
	opts = opts.withDefaults()
	opts.expLabel = "reliability"
	res := &ReliabilityResult{
		Trace:       "home02",
		OSDs:        opts.OSDCounts[0],
		Budget:      lifetime.DefaultPEBudget,
		Coincidence: 0.05,
	}

	rows := make([]ReliabilityRow, len(AllPolicies))
	var uniformHDF *cluster.Result // the throughput reference for the staggered run
	jobs := make([]func(), len(AllPolicies))
	for i, p := range AllPolicies {
		i, p := i, p
		jobs[i] = func() {
			spec := opts.cell(res.Trace, res.OSDs, p).Spec()
			out, err := run(opts, runLabel(opts.expLabel, spec), spec)
			if err != nil {
				rows[i] = ReliabilityRow{Policy: p, Err: err}
				return
			}
			wear := make([]lifetime.DeviceWear, len(out.EraseCounts))
			// All simulated SSDs share a geometry; blocks can be
			// recovered from erase counts only via the cluster, so the
			// runner reports erases and we use a fixed per-device block
			// count proxy — the *relative* horizons (which drive the
			// risk metric) are unaffected by the constant.
			const blocksProxy = 4096
			for d, e := range out.EraseCounts {
				wear[d] = lifetime.DeviceWear{
					Device: d,
					Group:  d % 4,
					Erases: e,
					Blocks: blocksProxy,
				}
			}
			projs := lifetime.Project(wear, res.Budget)
			rep := lifetime.AssessRisk(projs, res.Coincidence)
			row := ReliabilityRow{Policy: p, FirstDeath: rep.FirstDeath, RiskFraction: rep.RiskFraction()}
			for _, pr := range projs {
				if pr.Horizon > row.LastDeath && pr.Horizon < 1e18 {
					row.LastDeath = pr.Horizon
				}
			}
			rows[i] = row
			if p == HDF {
				uniformHDF = out
			}
		}
	}
	pool(opts.Parallelism, jobs)
	for _, r := range rows {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	res.Policies = rows

	// Structural comparison at a balanced per-device baseline horizon.
	const baseline = 1000.0
	uniform := make([]int, 4)
	for i := range uniform {
		uniform[i] = res.OSDs / 4
	}
	res.UniformRisk = lifetime.AssessRisk(lifetime.StaggerProjections(baseline, uniform), res.Coincidence)
	sizes, err := lifetime.StaggeredGroupSizes(res.OSDs, 4)
	if err != nil {
		return nil, err
	}
	res.StaggerSizes = sizes
	res.StaggerRisk = lifetime.AssessRisk(lifetime.StaggerProjections(baseline, sizes), res.Coincidence)
	weights := lifetime.DiffRAIDWeights(res.OSDs)
	res.DiffRAIDRisk = lifetime.AssessRisk(lifetime.DiffRAIDProjections(baseline, weights), res.Coincidence)
	res.DiffRAIDLoad = lifetime.LoadImbalance(weights)

	// Simulated §III.D staggering: replay with the staggered group
	// sizes actually configured and measure per-group wear speeds.
	spec := opts.cell(res.Trace, res.OSDs, HDF).Spec()
	spec.Cluster.GroupRotate = true
	spec.Cluster.GroupSizes = sizes
	out, err := run(opts, runLabel(opts.expLabel+"-staggered", spec), spec)
	if err != nil {
		return nil, err
	}
	res.SimThroughput = out.ThroughputOps
	res.MeasuredGroupWear = make([]float64, len(sizes))
	dev := 0
	for g, size := range sizes {
		var sum float64
		for i := 0; i < size; i++ {
			sum += float64(out.EraseCounts[dev])
			dev++
		}
		res.MeasuredGroupWear[g] = sum / float64(size)
	}
	res.UniformThroughput = uniformHDF.ThroughputOps
	return res, nil
}

// Format renders both halves of the analysis.
func (r *ReliabilityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reliability (§III.D) — %s, %d OSDs, P/E budget %.0f, coincidence ±%.0f%%\n",
		r.Trace, r.OSDs, r.Budget, r.Coincidence*100)

	fmt.Fprintf(&b, "\nMeasured wear projected to device wear-out (horizons in replay windows):\n")
	t := &table{header: []string{"policy", "first death", "last death", "spread", "cross-group risk"}}
	for _, row := range r.Policies {
		spread := row.LastDeath / row.FirstDeath
		t.add(row.Policy.String(),
			fmt.Sprintf("%.0f", row.FirstDeath),
			fmt.Sprintf("%.0f", row.LastDeath),
			fmt.Sprintf("%.2fx", spread),
			fmt.Sprintf("%.0f%%", row.RiskFraction*100))
	}
	b.WriteString(t.String())
	b.WriteString("\nWear balancing extends the first death but correlates deaths — which is\n")
	b.WriteString("why §III.D staggers wear *between* groups while balancing it *within* them:\n\n")

	// Per-device load imbalance of the staggered layout: each group
	// absorbs equal total traffic (one object per file per group), so a
	// device in a group of size s carries mean/s of the per-device
	// share — a real, measurable cost the simulated section confirms.
	staggerLoad := 1.0
	for _, v := range lifetime.GroupWearSpeeds(r.StaggerSizes) {
		if v > staggerLoad {
			staggerLoad = v
		}
	}
	t2 := &table{header: []string{"structure", "cross-group risky pairs", "risk", "write-load imbalance"}}
	t2.add("uniform groups (4x4)",
		fmt.Sprintf("%d/%d", r.UniformRisk.RiskyPairs, r.UniformRisk.CrossGroupPairs),
		fmt.Sprintf("%.0f%%", r.UniformRisk.RiskFraction()*100), "1.00x")
	t2.add(fmt.Sprintf("staggered groups %v", r.StaggerSizes),
		fmt.Sprintf("%d/%d", r.StaggerRisk.RiskyPairs, r.StaggerRisk.CrossGroupPairs),
		fmt.Sprintf("%.0f%%", r.StaggerRisk.RiskFraction()*100),
		fmt.Sprintf("%.2fx", staggerLoad))
	t2.add("Diff-RAID write skew",
		fmt.Sprintf("%d/%d", r.DiffRAIDRisk.RiskyPairs, r.DiffRAIDRisk.CrossGroupPairs),
		fmt.Sprintf("%.0f%%", r.DiffRAIDRisk.RiskFraction()*100),
		fmt.Sprintf("%.2fx", r.DiffRAIDLoad))
	b.WriteString(t2.String())

	if len(r.MeasuredGroupWear) > 0 {
		fmt.Fprintf(&b, "\nSimulated staggering — group-rotate placement with sizes %v, EDM-HDF:\n", r.StaggerSizes)
		t3 := &table{header: []string{"group", "size", "mean erases/device"}}
		for g, w := range r.MeasuredGroupWear {
			t3.add(fmt.Sprint(g), fmt.Sprint(r.StaggerSizes[g]), fmt.Sprintf("%.0f", w))
		}
		b.WriteString(t3.String())
		fmt.Fprintf(&b, "throughput: staggered %.0f ops/s vs uniform groups %.0f ops/s (%+.1f%%)\n",
			r.SimThroughput, r.UniformThroughput, 100*(r.SimThroughput/r.UniformThroughput-1))
	}
	return b.String()
}
