// Command edmbench regenerates the EDM paper's evaluation (§V): every
// table and figure, plus this reproduction's ablation studies.
//
// Usage:
//
//	edmbench -exp all                 # everything (minutes at scale 10)
//	edmbench -exp fig5 -scale 20      # one experiment, smaller workload
//	edmbench -exp fig1,fig6 -osds 16  # several, single cluster size
//
// Experiments: check, table1, fig1, fig3, fig5, fig6, fig7, fig8,
// ablation, reliability, stress. Figs. 5, 6 and 8 are projections of one
// shared run matrix and are computed together when requested together.
// check runs the golden-shape regression suite (experiment.Golden) and
// exits non-zero naming the first failing shape. stress runs the
// randomized fault-injection harness (internal/chaos) — excluded from
// "all", request it by name:
//
//	edmbench -exp stress -stress-n 2000 -stress-artifacts repros/
//	edmbench -stress-replay repros/repro-....json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"edm/internal/chaos"
	"edm/internal/check"
	"edm/internal/experiment"
	"edm/internal/prof"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: check,table1,fig1,fig3,fig5,fig6,fig7,fig8,ablation,reliability,stress,all (all excludes stress)")
		scale    = flag.Int("scale", 20, "workload scale divisor (1 = full Table I size)")
		seed     = flag.Uint64("seed", 42, "experiment seed")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = NumCPU)")
		osds     = flag.String("osds", "16,20", "comma-separated cluster sizes for the matrix experiments")
		lambda   = flag.Float64("lambda", 0.1, "wear-imbalance trigger threshold λ")
		selfchk  = flag.Bool("check", false, "run every experiment simulation under the full invariant harness (event-stream checker + state audit; slower)")
		timeout  = flag.Duration("timeout", 0, "wall-clock cap on the whole invocation (0 = none); Ctrl-C also cancels")

		stressN         = flag.Int("stress-n", 1000, "stress: number of randomized scenarios (seeded from -seed)")
		stressBudget    = flag.Duration("stress-budget", 0, "stress: wall-clock budget (0 = none); checked between scenarios")
		stressArtifacts = flag.String("stress-artifacts", "chaos-repros", "stress: directory for shrunk repro JSON artifacts (empty disables)")
		stressReplay    = flag.String("stress-replay", "", "replay one repro JSON artifact and verify its recorded verdict, then exit")

		telemetryDir    = flag.String("telemetry-dir", "", "write per-run event logs, snapshot CSVs and Chrome traces here")
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

	// -stress-replay is a standalone mode: load one repro artifact,
	// rerun its scenario, and verify the recorded verdict byte for
	// byte. Exit 0 means "faithfully reproduced" — even when the
	// reproduced verdict is a violation; that is the artifact's point.
	if *stressReplay != "" {
		r, err := chaos.ReadRepro(*stressReplay)
		if err != nil {
			fatalf("%v", err)
		}
		v, match, err := chaos.Replay(r)
		if err != nil {
			fatalf("replaying %s: %v", *stressReplay, err)
		}
		fmt.Printf("repro      %s\n", *stressReplay)
		fmt.Printf("scenario   seed %#x: %d OSDs/%d groups, %d faults, policy %s\n",
			r.Scenario.Seed, r.Scenario.OSDs, r.Scenario.Groups,
			len(r.Scenario.Plan.Faults), policyName(r.Scenario.Policy))
		fmt.Printf("verdict    digest %s, %d violation(s)\n", v.Digest, len(v.Violations))
		for _, viol := range v.Violations {
			fmt.Printf("           %s\n", viol)
		}
		if !match {
			fatalf("replay verdict drifted from the recorded one (got digest %s, want %s)",
				v.Digest, r.Verdict.Digest)
		}
		fmt.Println("replay     verdict reproduced byte for byte")
		return
	}

	// Every simulation in every experiment runs under this context:
	// cancelled by Ctrl-C, and by -timeout if set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiment.Options{
		Context:     ctx,
		Scale:       *scale,
		Seed:        *seed,
		Parallelism: *parallel,
		Lambda:      *lambda,
		Check:       *selfchk,
		Telemetry: telemetry.SinkConfig{
			Dir:    *telemetryDir,
			Events: *telemetryEvents,
			Sample: sim.Time(*telemetrySample * float64(sim.Second)),
		},
	}
	if opts.Telemetry.Enabled() {
		// Reject a bad class filter before spending minutes simulating.
		if _, err := telemetry.ParseClasses(*telemetryEvents); err != nil {
			fatalf("%v", err)
		}
	}
	counts, err := parseOSDCounts(*osds)
	if err != nil {
		fatalf("%v", err)
	}
	opts.OSDCounts = counts

	want, err := parseExperiments(*exp)
	if err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	run := func(name string, fn func() (string, error)) {
		if !want[name] {
			return
		}
		delete(want, name)
		t0 := time.Now()
		out, err := fn()
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fatalf("%s: interrupted: %v", name, err)
			}
			fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s took %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("check", func() (string, error) {
		results := experiment.Golden(opts)
		out := check.FormatResults(results)
		if f := check.FirstFailure(results); f != nil {
			return "", fmt.Errorf("golden shape %s failed: %v\n%s", f.Name, f.Err, out)
		}
		return out, nil
	})
	run("table1", func() (string, error) {
		r, err := experiment.Table1(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("fig1", func() (string, error) {
		r, err := experiment.Fig1(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("fig3", func() (string, error) {
		r, err := experiment.Fig3(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})

	// The matrix experiments share one set of runs.
	if want["fig5"] || want["fig6"] || want["fig8"] {
		t0 := time.Now()
		cells := experiment.Matrix(opts)
		for _, c := range cells {
			if c.Err != nil {
				fatalf("matrix %s/%d/%s: %v", c.Trace, c.OSDs, c.Policy, c.Err)
			}
		}
		fmt.Printf("[matrix: %d runs in %s]\n\n", len(cells), time.Since(t0).Round(time.Millisecond))
		if want["fig5"] {
			delete(want, "fig5")
			fmt.Println(experiment.Fig5(opts, cells).Format())
		}
		if want["fig6"] {
			delete(want, "fig6")
			fmt.Println(experiment.Fig6(opts, cells).Format())
		}
		if want["fig8"] {
			delete(want, "fig8")
			fmt.Println(experiment.Fig8(opts, cells).Format())
		}
	}

	run("fig7", func() (string, error) {
		r, err := experiment.Fig7(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("reliability", func() (string, error) {
		r, err := experiment.Reliability(opts)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("ablation", func() (string, error) {
		var b strings.Builder
		for _, r := range experiment.Ablations(opts) {
			b.WriteString(r.Format())
			b.WriteByte('\n')
		}
		b.WriteString(experiment.AblationFTL(opts).Format())
		b.WriteByte('\n')
		ol, err := experiment.AblationOpenLoop(opts)
		if err != nil {
			return "", err
		}
		b.WriteString(ol.Format())
		b.WriteByte('\n')
		return b.String(), nil
	})

	run("stress", func() (string, error) {
		sum := chaos.Stress(chaos.Options{
			Scenarios:   *stressN,
			Seed:        *seed,
			Budget:      *stressBudget,
			ArtifactDir: *stressArtifacts,
			Log:         os.Stderr,
		})
		var b strings.Builder
		fmt.Fprintf(&b, "stress: %d scenarios in %s (stopped: %s), %d failure(s)\n",
			sum.Ran, sum.Elapsed.Round(time.Millisecond), sum.Stopped, len(sum.Failures))
		for _, f := range sum.Failures {
			fmt.Fprintf(&b, "  scenario %d (seed %#x): %v\n", f.Index, f.Seed, f.Verdict.Violations)
			fmt.Fprintf(&b, "    shrunk to %d fault(s), %d records (%d shrink runs)",
				len(f.Shrunk.Plan.Faults), f.Shrunk.Records, f.ShrinkRuns)
			if f.ArtifactPath != "" {
				fmt.Fprintf(&b, " -> %s", f.ArtifactPath)
			}
			b.WriteByte('\n')
		}
		if !sum.OK() {
			return "", fmt.Errorf("%d of %d scenarios violated invariants\n%s",
				len(sum.Failures), sum.Ran, b.String())
		}
		return strings.TrimRight(b.String(), "\n"), nil
	})

	for name := range want {
		fatalf("unknown experiment %q", name)
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}

// policyName spells out a scenario's empty-string policy default.
func policyName(p string) string {
	if p == "" {
		return "baseline"
	}
	return p
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edmbench: "+format+"\n", args...)
	os.Exit(1)
}
