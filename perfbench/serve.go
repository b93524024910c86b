package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"edm"
	"edm/internal/dispatch"
	"edm/internal/server"
)

// Think time of the interactive user between a result and the next
// submission, drawn uniformly from [thinkMin, thinkMax). It is short
// enough that a run collects over a hundred interactive samples (ten
// beyond p90) and long enough, against the batch cells' run time, that
// preempted cells still finish: each resume replays the cell's prefix.
const (
	thinkMin = 110 * time.Millisecond
	thinkMax = 200 * time.Millisecond
)

// Lanes of the serve workload's Chrome trace.
const (
	laneFleet       = 1
	laneInteractive = 2
	laneJobs        = 100 // + job index
)

// connGauge tracks the loopback connections open at the server, to
// prove the generator never holds more than nproc of them.
type connGauge struct {
	mu        sync.Mutex
	open, max int
}

func (g *connGauge) track(_ net.Conn, s http.ConnState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch s {
	case http.StateNew:
		g.open++
		if g.open > g.max {
			g.max = g.open
		}
	case http.StateClosed, http.StateHijacked:
		g.open--
	}
}

func (g *connGauge) peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// oneConn is an HTTP client that never opens a second connection: each
// of the workload's clients is one closed loop, one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// serveWorkload: one in-process edmd (one worker) on a loopback
// listener, driven by two closed-loop clients — a fleet sweep of batch
// cells through dispatch.Pool, and an interactive user whose every
// arrival during a batch cell preempts it.
type serveWorkload struct {
	b       *bench
	srv     *server.Server
	ts      *httptest.Server
	conns   connGauge
	fleetHC *http.Client
	userHC  *http.Client
	user    *server.Client
	pool    *dispatch.Pool

	users      seedPlan // interactive job seeds
	rng        *rand.Rand
	timedStart time.Time
	stop       chan struct{}
	done       chan struct{}
	cells      int
	launches   int
}

func newServeWorkload(b *bench, workloadSeed uint64) *serveWorkload {
	return &serveWorkload{
		b:     b,
		users: planFor(interactiveFamily, workloadSeed),
		rng:   rand.New(rand.NewSource(int64(workloadSeed))),
	}
}

// start brings up a fresh server, waits for /healthz, and builds the
// fleet coordinator over it.
func (w *serveWorkload) start(ctx context.Context) error {
	w.srv = server.New(server.Config{Workers: 1})
	w.ts = httptest.NewUnstartedServer(w.srv.Handler())
	w.ts.Config.ConnState = w.conns.track
	w.ts.Start()
	w.fleetHC, w.userHC = oneConn(), oneConn()
	w.user = server.NewClient(w.ts.URL, w.userHC)
	for {
		h, err := w.user.Health(ctx)
		if err == nil && h.OK() {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	w.pool = dispatch.New(dispatch.Config{
		Workers: []string{w.ts.URL},
		Slots:   1,
		Client: dispatch.ClientConfig{
			HTTP: w.fleetHC, Priority: "batch", Tenant: "nightly",
			PollInterval: 10 * time.Millisecond,
		},
		DisableLocal: true,
	})
	return nil
}

func (w *serveWorkload) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.b.fail("server shutdown: %v", err)
	}
	w.fleetHC.CloseIdleConnections()
	w.userHC.CloseIdleConnections()
	w.ts.Close()
	w.srv = nil
}

// setup covers server start, /healthz ready, the dispatch probe (the
// first thing Pool.Run does) and the warm-up: one batch sweep and one
// interactive job on warm-up seeds.
func (w *serveWorkload) setup(ctx context.Context, b *bench, warm uint64) ([]*edm.Result, error) {
	w.teardown()
	if err := w.start(ctx); err != nil {
		return nil, err
	}
	out, err := w.sweep(ctx, b, -1, warm, false)
	if err != nil {
		return nil, err
	}
	userWarm := interactiveFamily.base - (fleetFamily.base - warm)
	_, err = w.request(ctx, b, userWarm, false)
	return out.results, err
}

// sweep runs one fleet sweep and checks every cell.
func (w *serveWorkload) sweep(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error) {
	specs := fleetCells(seed)
	root := -1
	if traced {
		root = b.tr.begin("dispatch.sweep", -1, u, laneFleet)
	}
	t0 := time.Now()
	runs, err := w.pool.Run(ctx, specs)
	runS := time.Since(t0).Seconds()
	b.tr.end(root)
	if err != nil {
		return unitOut{}, err
	}
	rs := make([]*edm.Result, len(runs))
	for i, r := range runs {
		if r.Err != nil {
			return unitOut{}, fmt.Errorf("%s: %w", r.Spec.Key(), r.Err)
		}
		rs[i] = r.Result
		if u >= 0 {
			b.sample("batch_s", r.Duration.Seconds())
			w.cells++
			w.launches += r.Launches
		}
	}
	bad := checkAll(ctx, b, specs, rs)
	if u < 0 && bad > 0 {
		return unitOut{}, fmt.Errorf("warm-up output check failed")
	}
	return unitOut{runS: runS, results: rs, bad: bad}, nil
}

// request is one interactive round trip: submit, then follow the
// job's stream until its result line.
func (w *serveWorkload) request(ctx context.Context, b *bench, seed uint64, timed bool) (float64, error) {
	cell := interactiveCell(seed)
	req := dispatch.RequestForCell(cell)
	req.Priority = "interactive"
	req.Tenant = "analyst"
	root, sub := -1, -1
	if timed {
		root = b.tr.begin("serve.interactive", -1, -1, laneInteractive)
		sub = b.tr.begin("server.submit", root, -1, laneInteractive)
	}
	t0 := time.Now()
	st, err := w.user.Submit(ctx, req)
	submitS := time.Since(t0).Seconds()
	b.tr.end(sub)
	if err != nil {
		b.tr.end(root)
		return 0, fmt.Errorf("submit %s: %w", cell.Key(), err)
	}
	wait := b.tr.begin("server.stream", root, -1, laneInteractive)
	res, err := w.result(ctx, st.ID)
	lat := time.Since(t0).Seconds()
	b.tr.end(wait)
	b.tr.end(root)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", cell.Key(), err)
	}
	if err := b.chk.check(ctx, cell, res); err != nil {
		return 0, err
	}
	if timed {
		b.sample("server.submit_s", submitS)
	}
	return lat, nil
}

// result reads /v1/runs/{id}/stream to its terminal line.
func (w *serveWorkload) result(ctx context.Context, id string) (*edm.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.userHC.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Drain to EOF so the connection is reused, not replaced.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var line struct {
			Type  string      `json:"type"`
			Run   *edm.Result `json:"run"`
			Error string      `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		switch line.Type {
		case "result":
			return line.Run, nil
		case "error":
			return nil, fmt.Errorf("job failed: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a result")
}

// interactiveLoop is the interactive user: think, submit, wait for the
// result, repeat — until stop closes.
func (w *serveWorkload) interactiveLoop(ctx context.Context, b *bench) {
	defer close(w.done)
	for _, seed := range w.users.timed {
		think := thinkMin + time.Duration(w.rng.Int63n(int64(thinkMax-thinkMin)))
		select {
		case <-w.stop:
			return
		case <-time.After(think):
		}
		lat, err := w.request(ctx, b, seed, true)
		b.mu.Lock()
		b.attempted++
		if err != nil {
			b.failed++
			b.failures = append(b.failures, fmt.Sprintf("interactive: %v", err))
		}
		b.mu.Unlock()
		if err == nil {
			b.sample("interactive_s", lat)
		}
	}
}

func (w *serveWorkload) unit(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error) {
	if w.stop == nil {
		b.tr.nameLane(laneFleet, "fleet client (dispatch.Pool)")
		b.tr.nameLane(laneInteractive, "interactive client")
		w.timedStart = time.Now()
		w.stop, w.done = make(chan struct{}), make(chan struct{})
		go w.interactiveLoop(ctx, b)
	}
	return w.sweep(ctx, b, u, seed, traced)
}

// close stops the interactive client, collects the server-side view of
// the timed jobs (JobStatus timings and /metricsz counters) and shuts
// the server down.
func (w *serveWorkload) close() {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	if w.srv != nil && w.stop != nil {
		if err := w.collect(context.Background()); err != nil {
			w.b.fail("collect server view: %v", err)
		}
	}
	w.teardown()
	w.b.counts["serve.max_conns"] = float64(w.conns.peak())
}

func (w *serveWorkload) collect(ctx context.Context) error {
	b := w.b
	if w.cells > 0 {
		b.counts["dispatch.launches_per_cell"] = float64(w.launches) / float64(w.cells)
	}
	if b.tr == nil {
		return nil
	}
	jobs, err := w.user.List(ctx)
	if err != nil {
		return err
	}
	n := 0
	for _, j := range jobs {
		if j.SubmittedAt.Before(w.timedStart) || j.StartedAt == nil || j.FinishedAt == nil {
			continue
		}
		lane := laneJobs + n
		n++
		b.tr.nameLane(lane, fmt.Sprintf("job %s (%s)", j.ID, j.Request.Priority))
		root := b.tr.add("job", j.SubmittedAt, *j.FinishedAt, -1, -1, lane)
		queued := j.StartedAt.Add(-time.Duration(j.QueueWaitS * float64(time.Second)))
		b.tr.add("sched.queue_wait", queued, *j.StartedAt, root, -1, lane)
		b.tr.add("job.run", *j.StartedAt, *j.FinishedAt, root, -1, lane)
		b.sample("sched.queue_wait_s", j.QueueWaitS)
		b.sample("job.elapsed_s", j.ElapsedS)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.ts.URL+"/metricsz", nil)
	if err != nil {
		return err
	}
	resp, err := w.userHC.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "edmd_sched.preemptions", "edmd_sched.requeues":
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return fmt.Errorf("metricsz %s: %w", name, err)
			}
			b.counts[strings.TrimPrefix(name, "edmd_")] = v
		}
	}
	return sc.Err()
}
