package experiment

import (
	"fmt"
	"strings"
)

// OpenLoopRow is one (load level, policy) cell of the open-loop study.
type OpenLoopRow struct {
	LoadFraction float64
	Policy       Policy
	MeanRTms     float64
	P99RTms      float64
	Moved        int
	Err          error
}

// OpenLoopResult studies response time under arrival-rate-driven load.
//
// The figure experiments replay closed-loop, as the paper's testbed
// does, and a closed loop self-limits: when the hot OSD saturates, the
// clients slow down with it, which caps how much of migration's benefit
// shows up in aggregate throughput. Under an open loop — operations
// arrive on a fixed schedule at a fraction of the baseline's capacity —
// the imbalance instead surfaces as queueing delay, and rebalancing
// recovers it. This is the regime where the paper's 15–40% gains live.
type OpenLoopResult struct {
	Trace       string
	OSDs        int
	BaselineOps float64 // closed-loop baseline throughput (capacity proxy)
	Rows        []OpenLoopRow
}

// AblationOpenLoop measures mean and tail response time at several load
// fractions of the closed-loop baseline capacity.
func AblationOpenLoop(opts Options) (*OpenLoopResult, error) {
	opts = opts.withDefaults()
	opts.expLabel = "openloop"
	res := &OpenLoopResult{Trace: "home02", OSDs: 16}

	baseSpec := opts.cell(res.Trace, res.OSDs, Baseline).Spec()
	base, err := run(opts, runLabel(opts.expLabel, baseSpec), baseSpec)
	if err != nil {
		return nil, err
	}
	res.BaselineOps = base.ThroughputOps

	fractions := []float64{0.70, 0.85, 0.95}
	policies := []Policy{Baseline, HDF, CDF, CMT}
	rows := make([]OpenLoopRow, len(fractions)*len(policies))
	var jobs []func()
	i := 0
	for _, f := range fractions {
		for _, p := range policies {
			idx, f, p := i, f, p
			i++
			jobs = append(jobs, func() {
				spec := opts.cell(res.Trace, res.OSDs, p).Spec()
				spec.Cluster.OpenLoopRate = res.BaselineOps * f
				label := fmt.Sprintf("%s.load%.0f", runLabel(opts.expLabel, spec), f*100)
				out, err := run(opts, label, spec)
				row := OpenLoopRow{LoadFraction: f, Policy: p, Err: err}
				if err == nil {
					row.MeanRTms = out.MeanResponse * 1000
					row.P99RTms = out.P99Response * 1000
					row.Moved = out.MovedObjects
				}
				rows[idx] = row
			})
		}
	}
	pool(opts.Parallelism, jobs)
	for _, r := range rows {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	res.Rows = rows
	return res, nil
}

// Format renders one block per load level.
func (r *OpenLoopResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — open-loop response time (%s, %d OSDs; rates as fractions of the %.0f ops/s closed-loop baseline)\n",
		r.Trace, r.OSDs, r.BaselineOps)
	b.WriteString("fixed arrival schedules surface imbalance as queueing delay instead of\nthrottled throughput — migration's benefit at full size\n")
	t := &table{header: []string{"load", "policy", "mean RT (ms)", "p99 RT (ms)", "moved"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%.0f%%", row.LoadFraction*100), row.Policy.String(),
			fmt.Sprintf("%.2f", row.MeanRTms),
			fmt.Sprintf("%.1f", row.P99RTms),
			fmt.Sprint(row.Moved))
	}
	b.WriteString(t.String())
	return b.String()
}
