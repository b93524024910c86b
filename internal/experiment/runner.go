package experiment

import (
	"fmt"

	"edm"
	"edm/internal/cluster"
)

// run executes one experiment simulation through edm.Run, the
// construction path the library and edmd use. The harness adds only
// what a sweep shares across runs: the memoized trace, a recycled
// Scratch from the pool, the Options context, and — when telemetry is
// on — a sink whose file set is named label.
func run(opts Options, label string, spec edm.Spec) (*cluster.Result, error) {
	ctx := opts.ctx()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: %s not started: %w", label, err)
	}
	tr, err := cachedTrace(spec)
	if err != nil {
		return nil, err
	}
	spec.Trace = tr
	sink, err := opts.Telemetry.NewSink(label)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		spec.Cluster.Recorder = sink.Tracer
		spec.Cluster.Metrics = sink.Registry
		spec.Cluster.SampleInterval = opts.Telemetry.Sample
	}
	scr := scratchPool.Get().(*cluster.Scratch)
	spec.Cluster.Scratch = scr
	res, err := edm.Run(ctx, spec)
	scratchPool.Put(scr)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runLabel names one run's telemetry file set uniquely within an
// edmbench invocation: experiment, trace, cluster size, policy.
func runLabel(exp string, s edm.Spec) string {
	if exp == "" {
		exp = "run"
	}
	return fmt.Sprintf("%s.%s.%d.%s", exp, s.Workload, s.OSDs, s.Policy)
}
