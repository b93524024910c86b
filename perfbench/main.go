// Command edmperf is the EDM repository's benchmark. It runs one
// workload for a fixed time, checks every output against stored
// digests, and prints a report followed by one JSON result line.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// Workloads: replay, checkpoint, sweep, serve (see BENCHMARK.json for
// why each exists). --trace 1 runs the traced variant: it reports the
// per-layer metrics and writes a Chrome-trace spans file.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
)

// minUnits is the number of timed units every run completes.
const minUnits = 3

var workloads = []string{"replay", "checkpoint", "sweep", "serve"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: replay, checkpoint, sweep or serve")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "seconds to measure")
		traced   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for spans files")
		gen      = flag.String("gen-digests", "", "regenerate the stored digests into this file and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if *gen != "" {
		if err := genDigests(ctx, *gen, runtime.NumCPU()); err != nil {
			fmt.Fprintln(os.Stderr, "edmperf:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *workload) || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "edmperf: need --workload replay|checkpoint|sweep|serve, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	res, err := runWorkload(ctx, *workload, *seed, *seconds, *traced == 1, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edmperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edmperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string, b *bench, seed uint64) (workload, seedPlan) {
	switch name {
	case "replay":
		return replayWorkload{}, planFor(runFamily, seed)
	case "checkpoint":
		return &checkpointWorkload{}, planFor(runFamily, seed)
	case "sweep":
		return &sweepWorkload{}, planFor(sweepFamily, seed)
	default:
		return newServeWorkload(b, seed), planFor(fleetFamily, seed)
	}
}

// runWorkload runs one workload and returns its result line; the
// human-readable report goes to w.
func runWorkload(ctx context.Context, name string, seed uint64, seconds float64, traced bool, outDir string, w *os.File) (*result, error) {
	table, err := loadDigests()
	if err != nil {
		return nil, err
	}
	chk := &checker{table: table}
	nproc := runtime.NumCPU()
	b := newBench(seconds, nproc, chk, traced, minUnits)
	wl, plan := newWorkload(name, b, seed)
	if err := b.run(ctx, wl, plan); err != nil {
		return nil, err
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	res.Correct = b.attempted > 0 && b.failed == 0 && len(b.failures) == 0
	rep := bufio.NewWriter(w)
	defer rep.Flush()
	fmt.Fprintf(rep, "edmperf workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Fprintf(rep, "machine %s\n", machineJSON())
	for _, f := range b.failures {
		fmt.Fprintf(rep, "FAIL %s\n", f)
	}
	if chk.computed > 0 {
		fmt.Fprintf(rep, "note: %d results had no stored digest; an untimed checked pass computed them\n", chk.computed)
	}
	writeEndToEnd(rep, name, b)
	if !traced {
		for _, m := range endToEnd(b) {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
		return res, nil
	}
	v := &layerView{
		self: selfTimes(b.tr.spans), counts: b.counts, samples: b.samples,
		units: float64(b.tracedN), all: float64(b.units), traced: b.tracedRunS, plain: b.runS,
	}
	writeLayerTable(rep, name, v)
	for _, m := range layerMetrics {
		// A layer the workload never reached reports 0 (the table
		// above shows it as a dash).
		if val, ok := m.value(v); ok {
			res.Metrics[m.name] = metricValue{val, m.unit}
		} else {
			res.Metrics[m.name] = metricValue{0, m.unit}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := b.tr.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(rep, "spans: %d -> %s\n", len(b.tr.spans), path)
	return res, nil
}

type e2eMetric struct {
	name, unit string
	value      float64
	n          int
}

// endToEnd is the untraced run's end-to-end metrics, every one of
// which is defined on every workload (BENCHMARK.json lists them).
func endToEnd(b *bench) []e2eMetric {
	sim, n := simOf(b.warm), len(b.warm)
	return []e2eMetric{
		{"setup_s", "s", median(b.setupS), len(b.setupS)},
		{"run_s", "s", median(b.runS), len(b.runS)},
		{"alloc_mb", "MB", median(b.allocMB), len(b.allocMB)},
		{"max_rss_mb", "MB", maxRSSMB(), 1},
		{"sim_throughput_ops_s", "ops/s", sim.throughput, n},
		{"sim_erases", "count", sim.erases, n},
		{"sim_erase_rsd", "ratio", sim.rsd, n},
	}
}

// writeEndToEnd prints every end-to-end metric that applies to the
// workload, with unit and sample count.
func writeEndToEnd(w *bufio.Writer, name string, b *bench) {
	fmt.Fprintf(w, "end-to-end (workload %s)\n", name)
	for _, m := range endToEnd(b) {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "  run_s per unit:")
	for _, x := range b.runS {
		fmt.Fprintf(w, " %.4g", x)
	}
	fmt.Fprintln(w)
	keys := make([]string, 0, len(b.samples))
	for k := range b.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := b.samples[k]
		switch k {
		case "resume_s", "batch_s":
			fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", k, median(xs), "s", len(xs))
		case "interactive_s":
			fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", k+".p50", median(xs), "s", len(xs))
			fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d (%d beyond)\n", k+".p90", quantile(xs, 0.9), "s", len(xs), len(xs)-int(0.9*float64(len(xs))+0.5))
		}
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d (%d failed)\n", "error_frac", frac, "ratio", b.attempted, b.failed)
	if c, ok := b.counts["serve.max_conns"]; ok {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s\n", "max_open_conns", c, "count")
	}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machineJSON is the machine record printed with every result, so
// trajectory points are compared only like with like. (The CPU model
// is added by prove.py, which runs outside the benchmark's sandbox.)
func machineJSON() string {
	j, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "arch": runtime.GOOS + "/" + runtime.GOARCH,
	})
	return string(j)
}
