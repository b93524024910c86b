package main

import (
	"fmt"
	"io"
	"strings"
)

// layerView is what the traced run measured, in the shape the
// per-layer metrics read it: self time per span name and counters,
// both summed over traced units, and sample lists.
type layerView struct {
	self    map[string]float64
	counts  map[string]float64
	samples map[string][]float64
	units   float64 // traced units
	all     float64 // all timed units (traced and untraced)
	traced  []float64
	plain   []float64
}

// perUnit reports a summed quantity per traced unit; present is false
// when the workload never exercised it.
func (v *layerView) perUnit(x float64, present bool) (float64, bool) {
	if !present || v.units == 0 {
		return 0, false
	}
	return x / v.units, true
}

func (v *layerView) selfPerUnit(names ...string) (float64, bool) {
	var sum float64
	present := false
	for _, n := range names {
		if x, ok := v.self[n]; ok {
			sum += x
			present = true
		}
	}
	return v.perUnit(sum, present)
}

func (v *layerView) countPerUnit(name string) (float64, bool) {
	x, ok := v.counts[name]
	return v.perUnit(x, ok)
}

func (v *layerView) q(name string, q float64) (float64, bool) {
	xs := v.samples[name]
	if len(xs) == 0 {
		return 0, false
	}
	if q == 0.5 {
		return median(xs), true
	}
	return quantile(xs, q), true
}

// layerMetric is one per-layer metric with the prediction the
// benchmark was built to test: which end-to-end metric it should move,
// the workloads it works hard in, and those where it should not move.
type layerMetric struct {
	name, unit, layer string
	moves, hard, none string
	value             func(v *layerView) (float64, bool)
}

func selfM(names ...string) func(*layerView) (float64, bool) {
	return func(v *layerView) (float64, bool) { return v.selfPerUnit(names...) }
}

func countM(name string) func(*layerView) (float64, bool) {
	return func(v *layerView) (float64, bool) { return v.countPerUnit(name) }
}

func quantM(name string, q float64) func(*layerView) (float64, bool) {
	return func(v *layerView) (float64, bool) { return v.q(name, q) }
}

// simSelf is the engine's self time: RunContext plus the resume path's
// FastForward and ContinueContext.
var simPhases = []string{"sim.replay", "resume.fastforward", "resume.continue"}

const (
	allRunning = "replay, checkpoint, serve"
	notServe   = "replay, checkpoint, sweep"
)

// layerMetrics is the per-layer table. Names follow the repo's
// modules; every value is per traced unit unless it names a quantile.
var layerMetrics = []layerMetric{
	{"trace.generate_s", "s", "trace", "run_s", allRunning, "sweep (memoized)", selfM("trace.generate")},
	{"trace.records", "count", "trace", "run_s", allRunning, "sweep (memoized)", countM("trace.records")},
	{"cluster.new_s", "s", "cluster", "run_s", "sweep (56 constructions)", "replay (1 per unit)", selfM("cluster.new")},
	{"sim.replay_s", "s", "sim+cluster+raid+flash", "run_s, batch_s.p50", "replay", "none fully", selfM("sim.replay")},
	{"sim.events", "count", "sim", "run_s", "replay", "none fully", countM("sim.events")},
	{"sim.events_per_op", "ratio", "sim", "run_s", "replay", "none fully", func(v *layerView) (float64, bool) {
		ev, ops := v.counts["sim.events"], v.counts["sim.ops"]
		return ev / ops, ops > 0
	}},
	{"sim.ns_per_event", "ns", "sim", "run_s", "replay", "none fully", func(v *layerView) (float64, bool) {
		s, _ := v.selfPerUnit(simPhases...)
		ev, _ := v.countPerUnit("sim.events")
		return s / ev * 1e9, ev > 0
	}},
	{"sim.ops_per_host_s", "ops/s", "sim", "run_s", "replay", "none fully", func(v *layerView) (float64, bool) {
		s, _ := v.selfPerUnit(simPhases...)
		ops, _ := v.countPerUnit("sim.ops")
		return ops / s, s > 0
	}},
	{"flash.erases", "count", "flash", "identity count", notServe, "must not change under a pure speed-up", countM("flash.erases")},
	{"flash.host_pages", "count", "flash", "identity count", notServe, "must not change under a pure speed-up", countM("flash.host_pages")},
	{"migration.plan_s", "s", "migration", "run_s", "sweep", "replay (one plan per run)", selfM("migration.plan")},
	{"migration.plans", "count", "migration", "run_s", "sweep", "replay (one plan per run)", countM("migration.plans")},
	{"migration.moves", "count", "migration", "run_s", "sweep", "replay (one plan per run)", countM("migration.moves")},
	{"migration.moved_bytes", "B", "migration", "run_s", "sweep", "replay (one plan per run)", countM("migration.moved_bytes")},
	{"migration.blocked_ops", "count", "migration", "run_s", "sweep", "replay (one plan per run)", countM("migration.blocked_ops")},
	{"snapshot.capture_s", "s", "snapshot", "run_s; interactive_s, batch_s.p50", "checkpoint, serve", "replay, sweep (zero frames)", selfM("snapshot.capture")},
	{"snapshot.encode_s", "s", "snapshot", "run_s; interactive_s, batch_s.p50", "checkpoint, serve", "replay, sweep (zero frames)", selfM("snapshot.encode")},
	{"snapshot.frames", "count", "snapshot", "run_s", "checkpoint, serve", "replay, sweep (zero frames)", countOrZero("snapshot.frames")},
	{"snapshot.frame_bytes", "B", "snapshot", "run_s", "checkpoint, serve", "replay, sweep (zero frames)", countOrZero("snapshot.frame_bytes")},
	{"resume.read_s", "s", "snapshot", "resume_s; batch_s.p50", "checkpoint, serve", "replay, sweep", selfM("resume.read")},
	{"resume.fastforward_s", "s", "snapshot+cluster", "resume_s; batch_s.p50", "checkpoint, serve", "replay, sweep", selfM("resume.fastforward")},
	{"resume.verify_s", "s", "snapshot", "resume_s; batch_s.p50", "checkpoint, serve", "replay, sweep", selfM("resume.verify")},
	{"resume.continue_s", "s", "sim+cluster", "resume_s; batch_s.p50", "checkpoint, serve", "replay, sweep", selfM("resume.continue")},
	{"resume.ff_events", "count", "snapshot+cluster", "resume_s", "checkpoint, serve", "replay, sweep", countM("resume.ff_events")},
	{"experiment.cell_s.p50", "s", "experiment", "run_s", "sweep", "all others", quantM("experiment.cell_s", 0.5)},
	{"experiment.cell_s.max", "s", "experiment", "run_s (slowest cell sets the makespan)", "sweep", "all others", quantM("experiment.cell_s", 1)},
	{"experiment.idle_frac", "ratio", "experiment", "run_s", "sweep", "all others", quantM("experiment.idle_frac", 0.5)},
	{"server.submit_s.p50", "s", "server", "interactive_s", "serve", "all others", quantM("server.submit_s", 0.5)},
	{"server.submit_s.p90", "s", "server", "interactive_s", "serve", "all others", quantM("server.submit_s", 0.9)},
	{"sched.queue_wait_s.p50", "s", "sched", "interactive_s", "serve", "all others", quantM("sched.queue_wait_s", 0.5)},
	{"sched.queue_wait_s.p90", "s", "sched", "interactive_s", "serve", "all others", quantM("sched.queue_wait_s", 0.9)},
	{"sched.preemptions", "count", "sched", "batch_s.p50 via preemptions x resume.fastforward_s", "serve", "all others", perAll("sched.preemptions")},
	{"sched.requeues", "count", "sched", "batch_s.p50", "serve", "all others", perAll("sched.requeues")},
	{"job.elapsed_s.p50", "s", "sched", "interactive_s, batch_s.p50", "serve", "all others", quantM("job.elapsed_s", 0.5)},
	{"dispatch.cell_s.p50", "s", "dispatch", "run_s, batch_s.p50 on serve", "serve", "all others", quantM("batch_s", 0.5)},
	{"dispatch.launches_per_cell", "ratio", "dispatch", "run_s, batch_s.p50 on serve", "serve", "all others", func(v *layerView) (float64, bool) {
		x, ok := v.counts["dispatch.launches_per_cell"]
		return x, ok
	}},
	{"runtime.gc_cycles", "count", "Go runtime", "alloc_mb, run_s", "all", "-", perAll("runtime.gc_cycles")},
	// The traced run's own view of the end-to-end timings. traced.run_s
	// against untraced.run_s (interleaved units of the same run) is the
	// tracing overhead; the rest record the workload-specific
	// end-to-end timings on the workloads they apply to.
	{"traced.run_s", "s", "benchmark", "tracing overhead", "all", "-", func(v *layerView) (float64, bool) {
		return median(v.traced), len(v.traced) > 0
	}},
	{"untraced.run_s", "s", "benchmark", "tracing overhead", "all", "-", func(v *layerView) (float64, bool) {
		return median(v.plain), len(v.plain) > 0
	}},
	{"tracing.overhead_frac", "ratio", "benchmark", "tracing overhead", "all", "-", func(v *layerView) (float64, bool) {
		t, p := median(v.traced), median(v.plain)
		return t/p - 1, len(v.traced) > 0 && p > 0
	}},
	{"resume_s", "s", "e2e", "-", "checkpoint", "-", quantM("resume_s", 0.5)},
	{"interactive_s.p50", "s", "e2e", "-", "serve", "-", quantM("interactive_s", 0.5)},
	{"interactive_s.p90", "s", "e2e", "-", "serve", "-", quantM("interactive_s", 0.9)},
	{"batch_s.p50", "s", "e2e", "-", "serve", "-", quantM("batch_s", 0.5)},
}

// countOrZero reports a counter that is a predicted zero where the
// layer does no work: absent counts as a measured 0.
func countOrZero(name string) func(*layerView) (float64, bool) {
	return func(v *layerView) (float64, bool) {
		x, _ := v.countPerUnit(name)
		return x, true
	}
}

// perAll divides a run-wide counter by all timed units of the run.
func perAll(name string) func(*layerView) (float64, bool) {
	return func(v *layerView) (float64, bool) {
		x, ok := v.counts[name]
		if !ok || v.all == 0 {
			return 0, false
		}
		return x / v.all, true
	}
}

// writeLayerTable prints the per-layer table: each metric's value (a
// dash where the workload never reached the layer) next to the
// end-to-end metric it should move and the workloads it should and
// should not move on.
func writeLayerTable(w io.Writer, workload string, v *layerView) {
	fmt.Fprintf(w, "per-layer (traced run, workload %s, %d traced units; values per unit)\n", workload, int(v.units))
	fmt.Fprintf(w, "  %-28s %14s %-6s %-22s %-40s %s\n", "metric", "value", "unit", "layer", "moves", "works hard in -> predicted no change in")
	for _, m := range layerMetrics {
		val, ok := m.value(v)
		s := "-"
		if ok {
			s = fmt.Sprintf("%.6g", val)
		}
		fmt.Fprintf(w, "  %-28s %14s %-6s %-22s %-40s %s -> %s\n", m.name, s, m.unit, m.layer, m.moves, m.hard, m.none)
	}
	fmt.Fprintln(w, strings.Repeat("-", 60))
}
