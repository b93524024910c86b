// Command edmctl drives a fleet of edmd workers through one sweep.
//
// edmctl decomposes an experiment matrix into cell specs, fans them
// out over the workers with retry, reassignment and hedging
// (internal/dispatch), and merges the results into figure tables that
// are byte-identical to a local single-process run of the same matrix
// and seed. With no -workers it runs the cells locally, so the same
// invocation doubles as the reference output.
//
//	edmctl sweep -exp fig5 -workers localhost:8080,localhost:8081
//	edmctl sweep -exp fig5,fig6,fig8 -scale 20 -seed 42       # local
//	edmctl status -workers localhost:8080,localhost:8081
//
// Tables go to stdout; the dispatch summary (per-worker counters in
// /metricsz text format) goes to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"edm/internal/dispatch"
	"edm/internal/experiment"
	"edm/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "sweep":
		sweep(os.Args[2:])
	case "status":
		status(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "edmctl: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  edmctl sweep  [flags]   run an experiment matrix over the fleet (or locally)
  edmctl status [flags]   probe every worker's /healthz and /v1/version

run "edmctl <command> -h" for the command's flags
`)
}

func sweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		workersFlag = fs.String("workers", "", "comma-separated edmd base URLs (empty: run locally)")
		exp         = fs.String("exp", "fig5", "comma-separated matrix figures: fig5,fig6,fig8,all")
		scale       = fs.Int("scale", 20, "workload scale divisor (1 = full Table I size)")
		seed        = fs.Uint64("seed", 42, "experiment seed")
		osds        = fs.String("osds", "16,20", "comma-separated cluster sizes")
		traces      = fs.String("traces", "", "comma-separated workloads (default: all seven)")
		lambda      = fs.Float64("lambda", 0.1, "wear-imbalance trigger threshold λ")
		check       = fs.Bool("check", false, "run every cell under the full invariant harness (event-stream checker + state audit; slower)")
		timeout     = fs.Duration("timeout", 0, "wall-clock cap on the whole sweep (0 = none); Ctrl-C also cancels")

		slots       = fs.Int("slots", 0, "in-flight cells per worker (0: size from the worker's /v1/version)")
		maxLaunches = fs.Int("max-launches", 3, "executions per cell before it is declared failed")
		hedgeAfter  = fs.Duration("hedge-after", 30*time.Second, "duplicate a cell still running after this (0 disables)")
		probe       = fs.Duration("probe-interval", 500*time.Millisecond, "unhealthy-worker reprobe cadence")
		poll        = fs.Duration("poll", 100*time.Millisecond, "job status poll cadence")
		noLocal     = fs.Bool("no-local-fallback", false, "fail cells instead of running them locally when the fleet is down")
		ckEvery     = fs.Uint64("checkpoint-every", 0, "checkpoint cadence in fired events; >0 stashes frames so a dead worker's cell resumes instead of restarting (0 disables)")
		priority    = fs.String("priority", "batch", "scheduling class for every cell: batch, normal or interactive (sweeps default to batch so interactive work can preempt them)")
		tenant      = fs.String("tenant", "", "fair-share tenant the sweep's cells are accounted to (empty: the worker default)")
		quiet       = fs.Bool("quiet", false, "suppress the dispatch summary and progress lines on stderr")
	)
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q", fs.Arg(0))
	}

	figures, err := parseFigures(*exp)
	if err != nil {
		fatalf("%v", err)
	}
	counts, err := parseOSDCounts(*osds)
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiment.Options{
		Context:   ctx,
		Scale:     *scale,
		Seed:      *seed,
		OSDCounts: counts,
		Traces:    parseTraces(*traces),
		Lambda:    *lambda,
		Check:     *check,
	}
	specs := experiment.MatrixSpecs(opts)

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	pool := dispatch.New(dispatch.Config{
		Workers:         parseWorkers(*workersFlag),
		Client:          dispatch.ClientConfig{PollInterval: *poll, Priority: *priority, Tenant: *tenant},
		Slots:           *slots,
		MaxLaunches:     *maxLaunches,
		HedgeAfter:      *hedgeAfter,
		ProbeInterval:   *probe,
		DisableLocal:    *noLocal,
		CheckpointEvery: *ckEvery,
		Logf:            logf,
	})

	start := time.Now()
	runs, err := pool.Run(ctx, specs)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fatalf("sweep interrupted: %v", err)
		}
		fatalf("sweep: %v", err)
	}
	cells := dispatch.Merge(runs)
	for _, c := range cells {
		if c.Err != nil {
			fatalf("cell %s/%d/%s: %v", c.Trace, c.OSDs, c.Policy, c.Err)
		}
	}

	for _, fig := range figures {
		switch fig {
		case "fig5":
			fmt.Println(experiment.Fig5(opts, cells).Format())
		case "fig6":
			fmt.Println(experiment.Fig6(opts, cells).Format())
		case "fig8":
			fmt.Println(experiment.Fig8(opts, cells).Format())
		}
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "# %d cells in %s\n", len(runs), time.Since(start).Round(time.Millisecond))
		pool.WriteSummary(os.Stderr)
	}
}

func status(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	workersFlag := fs.String("workers", "", "comma-separated edmd base URLs")
	timeout := fs.Duration("timeout", 5*time.Second, "per-probe timeout")
	_ = fs.Parse(args)
	workers := parseWorkers(*workersFlag)
	if len(workers) == 0 {
		fatalf("status: no workers (pass -workers host:port,host:port)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	type report struct {
		url     string
		line    string
		healthy bool
	}
	reports := make([]report, len(workers))
	var wg sync.WaitGroup
	for i, url := range workers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, *timeout)
			defer cancel()
			client := server.NewClient(url, nil)
			h, err := client.Health(cctx)
			if err != nil {
				reports[i] = report{url: url, line: fmt.Sprintf("%s  DOWN  %v", url, err)}
				return
			}
			v, verr := client.Version(cctx)
			ver := "?"
			if verr == nil {
				ver = fmt.Sprintf("%s %s (%s)", v.Service, v.Version, v.GoVersion)
			}
			reports[i] = report{
				url:     url,
				healthy: h.OK(),
				line: fmt.Sprintf("%s  %s  %s  workers=%d running=%d queue=%d/%d uptime=%.0fs",
					url, strings.ToUpper(h.Status), ver, h.Workers, h.Running, h.QueueDepth, h.QueueCapacity, h.UptimeSeconds),
			}
		}(i, url)
	}
	wg.Wait()

	down := 0
	for _, r := range reports {
		fmt.Println(r.line)
		if !r.healthy {
			down++
		}
	}
	if down > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edmctl: "+format+"\n", args...)
	os.Exit(1)
}
