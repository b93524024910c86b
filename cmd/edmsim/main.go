// Command edmsim replays one workload on one simulated cluster and
// prints a full result summary — the single-run workhorse behind the
// figures.
//
// Usage:
//
//	edmsim -workload home02 -osds 16 -policy hdf -scale 20
//	edmsim -trace /tmp/my.trace -policy cmt
//	edmsim -workload lair62 -policy cdf -migration periodic -lambda 0.2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"edm"
	"edm/internal/chaos"
	"edm/internal/check"
	"edm/internal/metrics"
	"edm/internal/prof"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "home02", "built-in workload (home02..lair62b, random); ignored with -trace")
		traceFile = flag.String("trace", "", "replay a trace file written by tracegen instead of a built-in workload")
		osds      = flag.Int("osds", 16, "number of OSDs")
		groups    = flag.Int("groups", 4, "placement groups m")
		k         = flag.Int("k", 4, "objects per file (RAID-5 width)")
		policyStr = flag.String("policy", "baseline", "baseline | cmt | hdf | cdf")
		scale     = flag.Int("scale", 20, "workload scale divisor (1 = full Table I size)")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		lambda    = flag.Float64("lambda", 0.1, "trigger threshold λ")
		migration = flag.String("migration", "", "override controller mode: never | midpoint | periodic")
		timeout   = flag.Duration("timeout", 0, "wall-clock cap on the run (0 = none); Ctrl-C also cancels")
		selfCheck = flag.Bool("check", false, "run under the full invariant harness (event-stream checker + state audit; slower); non-zero exit on any violation")
		chaosPlan = flag.String("chaos", "", "inject faults from a chaos plan JSON file (see internal/chaos); non-zero exit on a fault-aware invariant violation")

		checkpointFile  = flag.String("checkpoint", "", "append digest-sealed snapshot frames to this file during the run (continue a killed run with -resume)")
		checkpointEvery = flag.Uint64("checkpoint-every", 0, "checkpoint cadence in fired simulation events (0: the built-in default)")
		resumeFile      = flag.String("resume", "", "resume from the newest complete frame in this checkpoint file; the frame's embedded spec replaces the workload flags")
		series          = flag.Bool("series", false, "print the response-time series (Fig. 7 view)")
		perOSD          = flag.Bool("per-osd", false, "print per-OSD erase counts, write pages and utilizations")
		jsonOut         = flag.Bool("json", false, "emit the full result as JSON (for scripting)")

		telemetryDir    = flag.String("telemetry-dir", "", "write events.ndjson, snapshots.csv and trace.json (chrome://tracing) here")
		telemetryEvents = flag.String("telemetry-events", "all", "event classes to record: "+strings.Join(telemetry.ClassNames(), ","))
		telemetrySample = flag.Float64("telemetry-sample", 30, "metric snapshot interval in virtual seconds")

		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile (runtime/pprof) to this file at exit")
		execProfile = flag.String("execprofile", "", "write an execution trace (runtime/trace, go tool trace) to this file")
	)
	flag.Parse()

	profStop, err := prof.Start(prof.Config{CPU: *cpuProfile, Mem: *memProfile, Exec: *execProfile})
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := profStop(); err != nil {
			fatalf("%v", err)
		}
	}()

	policy, err := parsePolicy(*policyStr)
	if err != nil {
		fatalf("%v", err)
	}

	if *traceFile == "" {
		if err := validateWorkload(*workload); err != nil {
			fatalf("%v", err)
		}
	}

	spec := edm.Spec{
		Workload:       *workload,
		OSDs:           *osds,
		Groups:         *groups,
		ObjectsPerFile: *k,
		Policy:         policy,
		Scale:          *scale,
		Seed:           *seed,
		Lambda:         *lambda,
	}
	mode, err := parseMigrationMode(*migration)
	if err != nil {
		fatalf("%v", err)
	}
	spec.MigrationMode = mode

	// The run context: cancelled by Ctrl-C, and by -timeout if set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sinkCfg := telemetry.SinkConfig{
		Dir:    *telemetryDir,
		Events: *telemetryEvents,
		Sample: sim.Time(*telemetrySample * float64(sim.Second)),
	}
	sink, err := sinkCfg.NewSink("")
	if err != nil {
		fatalf("%v", err)
	}
	if sink != nil {
		spec.Cluster.Recorder = sink.Tracer
		spec.Cluster.Metrics = sink.Registry
		spec.Cluster.SampleInterval = sinkCfg.Sample
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err := trace.Decode(f)
		f.Close()
		if err != nil {
			fatalf("decoding %s: %v", *traceFile, err)
		}
		spec.Trace = tr
	}

	// -chaos decorates the recorder chain with the fault injector
	// (outermost, so it sees migration rounds before the checker does)
	// and schedules the plan's timed faults on the built cluster. The
	// injector is process-local and armed on a hand-built cluster, so
	// the chaos path cannot combine with -checkpoint/-resume — the
	// injector cannot be rebuilt from a frame (internal/chaos's
	// snapshot round-trip test resumes scenarios by rebuilding the
	// whole env instead).
	var inj *chaos.Injector
	var plan chaos.Plan
	if *chaosPlan != "" {
		if *checkpointFile != "" || *resumeFile != "" {
			fatalf("-chaos cannot combine with -checkpoint/-resume")
		}
		data, err := os.ReadFile(*chaosPlan)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(data, &plan); err != nil {
			fatalf("decoding %s: %v", *chaosPlan, err)
		}
		if err := plan.Validate(*osds); err != nil {
			fatalf("%v", err)
		}
	}

	// Checkpoint frames append to one file: a torn final frame after a
	// SIGKILL costs at most the newest checkpoint on resume.
	var runOpts []edm.RunOption
	if *checkpointFile != "" {
		w, err := os.OpenFile(*checkpointFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatalf("%v", err)
		}
		defer w.Close()
		runOpts = append(runOpts, edm.WithCheckpoint(w, *checkpointEvery))
	}
	if *selfCheck {
		runOpts = append(runOpts, edm.WithCheck())
	}

	var res *edm.Result
	switch {
	case *resumeFile != "":
		// The frame's embedded spec rebuilds the run; re-attach the
		// process-local telemetry sinks so the regenerated event log and
		// metric columns cover the whole run, not just the tail.
		if *traceFile != "" {
			fatalf("-resume replays the checkpoint's embedded spec; drop -trace")
		}
		if sink != nil {
			runOpts = append(runOpts, edm.WithTelemetry(sink.Tracer), edm.WithMetrics(sink.Registry))
		}
		f, err := os.Open(*resumeFile)
		if err != nil {
			fatalf("%v", err)
		}
		res, err = edm.Resume(ctx, f, runOpts...)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	case *chaosPlan != "":
		// Hand-built cluster: the injector (and, with -check, the
		// checker) wrap the recorder before construction, and the plan's
		// timed faults arm on the built cluster.
		var ck *check.Checker
		if *selfCheck {
			ck = check.Wrap(spec.Cluster.Recorder)
			spec.Cluster.Recorder = ck
			spec.Cluster.SelfCheck = true
		}
		inj = chaos.NewInjector(spec.Cluster.Recorder, plan)
		spec.Cluster.Recorder = inj
		cl, err := edm.NewCluster(spec)
		if err != nil {
			fatalf("%v", err)
		}
		if ck != nil {
			check.Bind(ck, cl)
		}
		inj.Arm(cl, plan)
		if res, err = cl.RunContext(ctx); err != nil {
			fatalf("%v", err)
		}
		if ck != nil {
			rep := check.Audit(cl, ck)
			if err := rep.Err(); err != nil {
				fatalf("%v\n%s", err, rep)
			}
			fmt.Fprintf(os.Stderr, "check: %s\n", rep)
		}
		if v := inj.Violations(res); len(v) > 0 {
			fatalf("chaos: %s", strings.Join(v, "; "))
		}
		fmt.Fprintf(os.Stderr, "chaos: %d fault window(s); %d degraded, %d lost ops\n",
			inj.Windows(), res.DegradedOps, res.LostOps)
	default:
		var err error
		if res, err = edm.Run(ctx, spec, runOpts...); err != nil {
			fatalf("%v", err)
		}
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: %d events -> %s\n",
			sink.Tracer.Len(), strings.Join(sink.Files(), ", "))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("encoding JSON: %v", err)
		}
		return
	}

	fmt.Printf("trace      %s\n", res.Trace)
	fmt.Printf("policy     %s\n", res.Policy)
	fmt.Printf("OSDs       %d\n", res.OSDs)
	fmt.Printf("completed  %d ops over %s of virtual time\n", res.Completed, res.Makespan)
	fmt.Printf("throughput %.1f ops/s\n", res.ThroughputOps)
	fmt.Printf("response   mean %.3f ms, p99 %.3f ms\n", res.MeanResponse*1000, res.P99Response*1000)
	fmt.Printf("erases     %d aggregate (RSD %.3f)\n", res.AggregateErases, rsd(res.EraseCounts))
	fmt.Printf("writes     %d host pages\n", res.AggregateWrites)
	if res.Migrations > 0 {
		fmt.Printf("migration  %d round(s): %d objects, %.1f MB, window %s – %s\n",
			res.Migrations, res.MovedObjects, float64(res.MovedBytes)/(1<<20),
			res.MigrationStart, res.MigrationEnd)
		fmt.Printf("remap      %d entries (peak %d)\n", res.RemapEntries, res.RemapPeak)
	}
	if res.Rejected > 0 {
		fmt.Printf("REJECTED   %d operations (capacity pressure)\n", res.Rejected)
	}

	if *perOSD {
		fmt.Println("\nper-OSD:")
		fmt.Printf("%4s %10s %12s %6s %6s\n", "osd", "erases", "write-pages", "util", "busy")
		for i := range res.EraseCounts {
			fmt.Printf("%4d %10d %12d %5.2f %5.2f\n",
				i, res.EraseCounts[i], res.WritePages[i], res.Utilizations[i], res.BusyFractions[i])
		}
	}
	if *series {
		fmt.Println("\nresponse-time series (bucket start, mean ms, ops):")
		for _, p := range res.ResponseSeries {
			fmt.Printf("%8.0fs %10.3f %8d\n", p.Time, p.Mean*1000, p.Count)
		}
	}
}

func rsd(xs []uint64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return metrics.RSD(fs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edmsim: "+format+"\n", args...)
	os.Exit(1)
}
