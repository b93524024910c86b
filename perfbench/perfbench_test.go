package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testChecker(t *testing.T) *checker {
	t.Helper()
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return &checker{table: table}
}

// A corrupted stored digest must surface as a failed unit, never be
// skipped.
func TestCorruptDigestCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	seed := runFamily.base
	for _, corrupt := range []bool{false, true} {
		chk := testChecker(t)
		if corrupt {
			e := chk.table[runCell(seed).Key()]
			e.Digest = strings.Repeat("0", len(e.Digest))
			chk.table[runCell(seed).Key()] = e
		}
		b := newBench(0, runtime.NumCPU(), chk, false, 1)
		if err := b.run(ctx, replayWorkload{}, seedPlan{timed: []uint64{seed}}); err != nil {
			t.Fatal(err)
		}
		if b.attempted != 1 {
			t.Fatalf("attempted %d units, want 1", b.attempted)
		}
		if got := b.failed > 0; got != corrupt {
			t.Fatalf("corrupt=%v: failed=%d failures=%v", corrupt, b.failed, b.failures)
		}
	}
}

func TestSeedPlanRejectsSharedSeeds(t *testing.T) {
	bad := []seedPlan{
		{warm: []uint64{5}, timed: []uint64{7, 5}},
		{warm: []uint64{5, 5}, timed: []uint64{7}},
		{timed: []uint64{7, 8, 7}},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("plan %+v: validate accepted a shared seed", p)
		}
	}
	b := newBench(0, 1, testChecker(t), false, 1)
	if err := b.run(context.Background(), replayWorkload{}, bad[0]); err == nil {
		t.Error("run accepted a plan whose warm-up seed is also timed")
	}
	for _, f := range []family{runFamily, sweepFamily, fleetFamily, interactiveFamily} {
		for seed := uint64(0); seed < 20; seed++ {
			if err := planFor(f, seed).validate(); err != nil {
				t.Errorf("%s seed %d: %v", f.name, seed, err)
			}
		}
	}
}

// Every spec a run can check has a stored digest, so no run pays for
// an untimed checked pass.
func TestDigestsCoverEveryPlannedSpec(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range allCells(runtime.NumCPU()) {
		if _, ok := table[c.Key()]; !ok {
			t.Fatalf("no stored digest for %s", c.Key())
		}
	}
}

func TestServeHoldsAtMostNprocConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process edmd")
	}
	ctx := context.Background()
	nproc := runtime.NumCPU()
	b := newBench(0.5, nproc, testChecker(t), false, 2)
	w := newServeWorkload(b, 1)
	p := planFor(fleetFamily, 1)
	p.warm = p.warm[:1]
	if err := b.run(ctx, w, p); err != nil {
		t.Fatal(err)
	}
	if b.failed > 0 || len(b.failures) > 0 {
		t.Fatalf("serve run failed: %v", b.failures)
	}
	if got := b.counts["serve.max_conns"]; got < 1 || got > float64(nproc) {
		t.Fatalf("peak open connections %v, want 1..%d", got, nproc)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "unit", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0},  // overlaps a
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped at the parent's end
		{Name: "a", Start: 20 * ms, End: 25 * ms, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"unit": 0.04, "a": 0.03, "b": 0.03, "c": 0.03}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the result line prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	var wantE2E, wantLayer []string
	for _, m := range endToEnd(newBench(0, 1, nil, false, 0)) {
		wantE2E = append(wantE2E, m.name+" "+m.unit)
	}
	for _, m := range layerMetrics {
		wantLayer = append(wantLayer, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end %v, printed %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("per_layer %v, printed %v", layer, wantLayer)
	}
}
