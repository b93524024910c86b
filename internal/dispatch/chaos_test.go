package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"edm/internal/chaos"
	"edm/internal/experiment"
	"edm/internal/server"
)

// TestChaosPlanDispatchSweep executes a chaos Plan's dispatch faults
// under a real sweep: the fleet client's transport is an HTTPScript
// that drops the first /v1/runs exchange and kills worker 2 from its
// third exchange on. The drop must cost a retry, the dead worker must be
// marked down with its cell reassigned to the survivor, and every
// merged result must equal the local experiment.RunCell bytes.
func TestChaosPlanDispatchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts1 := startWorker(t, server.Config{Workers: 1, QueueDepth: 32})
	_, ts2 := startWorker(t, server.Config{Workers: 1, QueueDepth: 32})

	// Worker 2's exchanges: /healthz (0), POST /v1/runs (1), then it
	// dies — every later exchange, re-probes included, is dropped.
	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.FaultDropResponse, Path: "/v1/runs", Nth: 0},
		{Kind: chaos.FaultWorkerDeath, Path: strings.TrimPrefix(ts2.URL, "http://") + "/", Nth: 2},
	}}
	if err := plan.Validate(0); err != nil {
		t.Fatal(err)
	}
	script := chaos.NewHTTPScript(plan, nil)
	cfg := fastClient()
	cfg.HTTP = &http.Client{Transport: script}
	p := New(Config{
		Workers:       []string{ts1.URL, ts2.URL},
		Client:        cfg,
		Slots:         1,
		DisableLocal:  true,
		ProbeInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})
	specs := experiment.MatrixSpecs(e2eOpts())
	runs, err := p.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	live, dead := p.workers[0], p.workers[1]
	if got := live.client.Retries.Load() + dead.client.Retries.Load(); got < 1 {
		t.Errorf("Retries = %d, want >= 1 after a dropped response", got)
	}
	if dead.healthy.Load() || dead.downs.Load() == 0 {
		t.Errorf("dead worker healthy=%v downs=%d, want marked down", dead.healthy.Load(), dead.downs.Load())
	}
	if dead.assigned.Load() == 0 || dead.completed.Load() != 0 || p.reassigns.Load() == 0 {
		t.Errorf("dead worker assigned=%d completed=%d, fleet reassigned=%d; want its cells reassigned",
			dead.assigned.Load(), dead.completed.Load(), p.reassigns.Load())
	}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("cell %s: %v", r.Spec, r.Err)
		}
		if r.Worker != ts1.URL {
			t.Errorf("cell %s accepted from %q, want the surviving worker", r.Spec, r.Worker)
		}
		local, err := experiment.RunCell(context.Background(), r.Spec)
		if err != nil {
			t.Fatalf("local %s: %v", r.Spec, err)
		}
		got, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(local)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s: fleet result differs from experiment.RunCell", r.Spec)
		}
	}
	t.Logf("exchanges per fault: %v", script.Exchanges())
}
