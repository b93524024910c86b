// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure (the regeneration cost of each artefact), plus
// micro-benchmarks for the substrate hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches use a deeper workload scale than cmd/edmbench's
// default so `go test -bench` stays in seconds; use cmd/edmbench for the
// paper-shaped output at full experiment scale.
package edm_test

import (
	"testing"

	"edm/internal/cluster"
	"edm/internal/experiment"
	"edm/internal/flash"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/placement"
	"edm/internal/remap"
	"edm/internal/rng"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
	"edm/internal/trace"
	"edm/internal/wear"
)

// benchOpts is the reduced experiment scope used by the per-figure
// benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{
		Scale:     100,
		Seed:      42,
		OSDCounts: []int{16},
		Traces:    []string{"home02", "deasna", "lair62"},
	}
}

// BenchmarkTable1Workloads regenerates Table I (all seven generators).
func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1WearVariance regenerates the Fig. 1 wear-variance runs.
func BenchmarkFig1WearVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3WearModel regenerates the Fig. 3 u_r measurement sweep.
func BenchmarkFig3WearModel(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatrix runs the shared Fig. 5/6/8 matrix once per iteration.
func benchMatrix(b *testing.B) []experiment.Cell {
	cells := experiment.Matrix(benchOpts())
	for _, c := range cells {
		if c.Err != nil {
			b.Fatal(c.Err)
		}
	}
	return cells
}

// BenchmarkFig5Throughput regenerates the Fig. 5 throughput matrix.
func BenchmarkFig5Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig5(benchOpts(), cells).Format()
	}
}

// BenchmarkFig6EraseCount regenerates the Fig. 6 erase-count matrix.
func BenchmarkFig6EraseCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig6(benchOpts(), cells).Format()
	}
}

// BenchmarkFig7ResponseTime regenerates the Fig. 7 timelines.
func BenchmarkFig7ResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MovedObjects regenerates the Fig. 8 migration-volume
// matrix.
func BenchmarkFig8MovedObjects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchMatrix(b)
		_ = experiment.Fig8(benchOpts(), cells).Format()
	}
}

// BenchmarkAblationLambda runs the λ-sweep ablation.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.AblationLambda(benchOpts())
	}
}

// BenchmarkAblationRemapPreference runs the §III.C preference ablation.
func BenchmarkAblationRemapPreference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.AblationRemapPreference(benchOpts())
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkFlashWrite measures the FTL write path (including amortized
// garbage collection) under steady-state random overwrites.
func BenchmarkFlashWrite(b *testing.B) {
	ssd := flash.MustNew(flash.DefaultConfig(256 << 20)) // 256MB
	live := ssd.MaxLivePages() * 7 / 10
	for i := int64(0); i < live; i++ {
		if _, err := ssd.Write(i); err != nil {
			b.Fatal(err)
		}
	}
	stream := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssd.Write(stream.Int63n(live)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWearModelInversion measures the F(u) bisection at the heart
// of Eq.(4).
func BenchmarkWearModelInversion(b *testing.B) {
	m := wear.NewModel(32, wear.DefaultSigma)
	for i := 0; i < b.N; i++ {
		_ = m.EraseCount(100000, 0.3+float64(i%60)/100)
	}
}

// BenchmarkAlgorithm1HDF measures the paper's Algorithm 1 over a
// 16-device snapshot.
func BenchmarkAlgorithm1HDF(b *testing.B) {
	model := wear.NewModel(32, wear.DefaultSigma)
	stream := rng.New(2)
	devs := make([]migration.DeviceState, 16)
	eligible := make([]int, 16)
	for i := range devs {
		devs[i] = migration.DeviceState{
			OSD:           i,
			WinWritePages: float64(stream.Int63n(100000)),
			Utilization:   0.4 + stream.Float64()*0.4,
			CapacityPages: 1 << 20,
		}
		eligible[i] = i
	}
	cfg := migration.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = migration.CalculateAmountOfDataMovement(model, devs, eligible, migration.ModeHDF, cfg)
	}
}

// BenchmarkTemperatureTracking measures the Def.-1 access path.
func BenchmarkTemperatureTracking(b *testing.B) {
	tr := temperature.New(temperature.DefaultInterval)
	for i := 0; i < b.N; i++ {
		tr.RecordWrite(temperature.ObjectID(i%4096), 2, 0)
	}
}

// BenchmarkTemperatureTouch measures the slot-addressed replay hot path
// — a pre-installed tracker touched by dense handle, including periodic
// epoch advances. The benchgate baseline pins it allocation-free.
func BenchmarkTemperatureTouch(b *testing.B) {
	tr := temperature.New(temperature.DefaultInterval)
	const slots = 4096
	for i := 0; i < slots; i++ {
		tr.InstallAt(temperature.Slot(i), temperature.ObjectID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TouchWrite(temperature.Slot(i%slots), 2, sim.Time(i))
	}
}

// BenchmarkRemapLookup measures the remap-aware locate on a populated
// table — the per-suboperation lookup cost on the replay path.
func BenchmarkRemapLookup(b *testing.B) {
	tb := remap.New()
	tb.Reserve(4096)
	for id := 0; id < 4096; id += 3 {
		tb.Record(object.ID(id), id%16, (id+1)%16)
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tb.Lookup(object.ID(i%4096), i%16)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination in value-only benchmarks.
var benchSink int

// BenchmarkMigrationPlan measures one forced HDF planning pass over a
// synthetic 16-device, 512-objects-per-device snapshot — the per-round
// planner cost the top-k selection rewrite targets.
func BenchmarkMigrationPlan(b *testing.B) {
	stream := rng.New(7)
	snap := &migration.Snapshot{
		Model:  wear.NewModel(32, wear.DefaultSigma),
		Layout: placement.Layout{N: 16, M: 4, K: 4},
	}
	objs := make([]migration.ObjectInfo, 0, 16*512)
	for i := 0; i < 16; i++ {
		dev := migration.DeviceState{
			OSD:           i,
			Group:         i % 4,
			WinWritePages: float64(stream.Int63n(100000)),
			Utilization:   0.4 + stream.Float64()*0.4,
			CapacityPages: 1 << 20,
			UsedPages:     1 << 19,
		}
		start := len(objs)
		for j := 0; j < 512; j++ {
			w := float64(stream.Int63n(400))
			objs = append(objs, migration.ObjectInfo{
				ID:            object.ID(i*512 + j),
				Index:         int32(i*512 + j),
				Home:          i,
				Pages:         100,
				Bytes:         100 * 4096,
				WriteTemp:     w,
				TotalTemp:     2 * w,
				WinWritePages: w,
			})
		}
		dev.Objects = objs[start:len(objs):len(objs)]
		snap.Devices = append(snap.Devices, dev)
	}
	h := migration.NewHDF(migration.DefaultConfig())
	h.SetForce(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moves := h.Plan(snap); len(moves) == 0 {
			b.Fatal("forced plan moved nothing")
		}
	}
}

// BenchmarkTraceGeneration measures the home02 generator at 1/100
// scale.
func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := trace.LookupProfile("home02")
	p = p.Scaled(100)
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterReplay measures end-to-end replay throughput (events
// per wall second) of a 16-OSD baseline simulation.
func BenchmarkClusterReplay(b *testing.B) {
	p, _ := trace.LookupProfile("home02")
	p = p.Scaled(200)
	tr, err := trace.Generate(p, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Config{OSDs: 16, WarmupDisabled: true, Seed: 9}, tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRun is BenchmarkClusterReplay with the scratch-state
// recycling the experiment harness uses: each iteration hands the
// previous run's grown buffers to the next cluster, so the allocs/op it
// reports are the true marginal cost of one run in a sweep.
func BenchmarkClusterRun(b *testing.B) {
	tr := benchTrace(b)
	scr := &cluster.Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Config{OSDs: 16, WarmupDisabled: true, Seed: 9, Scratch: scr}, tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Run(); err != nil {
			b.Fatal(err)
		}
		scr = cl.Release()
	}
}

// benchReplay runs one 16-OSD midpoint-HDF replay with the given
// telemetry configuration; the telemetry benchmarks below compare its
// cost across recorder configurations.
func benchReplay(b *testing.B, tr *trace.Trace, rec telemetry.Recorder) {
	b.Helper()
	cfg := cluster.Config{
		OSDs: 16, WarmupDisabled: true, Seed: 9,
		Migration: cluster.MigrateMidpoint,
		Recorder:  rec,
	}
	cl, err := cluster.New(cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	cl.SetPlanner(migration.NewHDF(migration.DefaultConfig()))
	if _, err := cl.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	p, _ := trace.LookupProfile("home02")
	p = p.Scaled(200)
	tr, err := trace.Generate(p, 9)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTelemetryDisabled is the zero-overhead-when-disabled
// baseline: a nil Recorder, so every instrumented hot path pays exactly
// one nil-check per event site. Compare against BenchmarkTelemetryEnabled
// to see the cost of full event collection.
func BenchmarkTelemetryDisabled(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReplay(b, tr, nil)
	}
}

// BenchmarkTelemetryEnabled runs the same replay with a ClassAll Tracer
// collecting every event.
func BenchmarkTelemetryEnabled(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReplay(b, tr, telemetry.NewTracer(telemetry.ClassAll))
	}
}
