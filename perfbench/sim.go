package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"edm"
	"edm/internal/cluster"
	"edm/internal/experiment"
	"edm/internal/migration"
	"edm/internal/policy"
	"edm/internal/sim"
	"edm/internal/snapshot"
	"edm/internal/trace"
)

// tracedPlanner decorates the cluster's planner to time and count
// migration planning. It forwards migration.Forcible, as the chaos
// injector's planner does, so the midpoint round still reaches the
// planner it wraps.
type tracedPlanner struct {
	inner migration.Planner
	b     *bench
	tr    *tracer
	// parent is the span the simulation currently runs under; the
	// cluster calls Plan synchronously from inside that span.
	parent *int
	unit   int
	lane   int
}

func (p *tracedPlanner) Name() string       { return p.inner.Name() }
func (p *tracedPlanner) BlocksAccess() bool { return p.inner.BlocksAccess() }

func (p *tracedPlanner) Plan(s *migration.Snapshot) []migration.Move {
	sp := p.tr.begin("migration.plan", *p.parent, p.unit, p.lane)
	moves := p.inner.Plan(s)
	p.tr.end(sp)
	var bytes int64
	for _, m := range moves {
		bytes += m.Bytes
	}
	p.b.count("migration.plans", 1)
	p.b.count("migration.moves", float64(len(moves)))
	p.b.count("migration.moved_bytes", float64(bytes))
	return moves
}

func (p *tracedPlanner) SetForce(f bool) {
	if fp, ok := p.inner.(migration.Forcible); ok {
		fp.SetForce(f)
	}
}

func (p *tracedPlanner) Forced() bool {
	fp, ok := p.inner.(migration.Forcible)
	return ok && fp.Forced()
}

// plannerOf builds the planner edm.NewCluster installs for spec.
func plannerOf(spec edm.Spec) migration.Planner {
	cfg := migration.DefaultConfig()
	if spec.Lambda != 0 {
		cfg.Lambda = spec.Lambda
	}
	switch spec.Policy {
	case policy.CMT:
		return migration.NewCMT(cfg)
	case policy.HDF:
		return migration.NewHDF(cfg)
	case policy.CDF:
		return migration.NewCDF(cfg)
	}
	return nil
}

// tracedSim is one traced simulation: the calls edm.Run makes, made
// from here so each layer gets its own span.
type tracedSim struct {
	b          *bench
	tr         *tracer
	unit, lane int
	cur        int // span the simulation is running under
}

func newTracedSim(b *bench, unit, lane int) *tracedSim {
	b.tr.nameLane(lane, "client")
	return &tracedSim{b: b, tr: b.tr, unit: unit, lane: lane}
}

func (t *tracedSim) span(name string, parent int) int {
	return t.tr.begin(name, parent, t.unit, t.lane)
}

// build runs BuildTrace (unless tr is given, as from a memo) and
// NewCluster on the built trace, then installs the traced planner.
func (t *tracedSim) build(spec edm.Spec, tr *trace.Trace, parent int) (*cluster.Cluster, error) {
	if tr == nil {
		sp := t.span("trace.generate", parent)
		var err error
		tr, err = edm.BuildTrace(spec)
		t.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t.b.count("trace.records", float64(len(tr.Records)))
	}
	spec.Trace = tr
	sp := t.span("cluster.new", parent)
	cl, err := edm.NewCluster(spec)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if p := plannerOf(spec); p != nil {
		cl.SetPlanner(&tracedPlanner{inner: p, b: t.b, tr: t.tr, parent: &t.cur, unit: t.unit, lane: t.lane})
	}
	return cl, nil
}

// step runs one engine phase (RunContext, FastForward, ContinueContext)
// under its own span and counts the events it fired.
func (t *tracedSim) step(name string, parent int, cl *cluster.Cluster, fn func() error) error {
	before := cl.Engine().Fired()
	t.cur = t.span(name, parent)
	err := fn()
	t.tr.end(t.cur)
	t.b.count("sim.events", float64(cl.Engine().Fired()-before))
	return err
}

func (t *tracedSim) finish(res *edm.Result) {
	t.b.count("sim.ops", float64(res.Completed))
	t.b.count("flash.erases", float64(res.AggregateErases))
	t.b.count("flash.host_pages", float64(res.AggregateWrites))
	t.b.count("migration.blocked_ops", float64(res.BlockedOps))
}

// run is edm.Run's own sequence — BuildTrace, NewCluster on the built
// trace, RunContext — with an optional checkpoint hook that mirrors
// WithCheckpoint(w, 0): snapshot.Capture then EncodeTo every
// DefaultCheckpointEvery fired events.
func (t *tracedSim) run(ctx context.Context, spec edm.Spec, ckpt io.Writer, parent int) (*edm.Result, error) {
	if ckpt != nil {
		spec.CheckpointEvery = edm.DefaultCheckpointEvery
		spec.Cluster.CheckpointEvery = edm.DefaultCheckpointEvery
	}
	cl, err := t.build(spec, nil, parent)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		cw := &countingWriter{w: ckpt}
		cl.SetCheckpoint(func(sim.Time) error {
			if cl.Engine().Fired()%edm.DefaultCheckpointEvery != 0 {
				return nil
			}
			sp := t.span("snapshot.capture", t.cur)
			snap := snapshot.Capture(cl, specJSON, nil)
			t.tr.end(sp)
			sp = t.span("snapshot.encode", t.cur)
			n0 := cw.n
			err := snap.EncodeTo(cw)
			t.tr.end(sp)
			t.b.count("snapshot.frames", 1)
			t.b.count("snapshot.frame_bytes", float64(cw.n-n0))
			return err
		})
	}
	var res *edm.Result
	err = t.step("sim.replay", parent, cl, func() (err error) {
		res, err = cl.RunContext(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.finish(res)
	return res, nil
}

// resume is edm.Resume's sequence: ReadLast, NewCluster from the
// frame's spec, FastForward, Verify, ContinueContext.
func (t *tracedSim) resume(ctx context.Context, frames []byte, parent int) (*edm.Result, error) {
	sp := t.span("resume.read", parent)
	snap, err := snapshot.ReadLast(bytes.NewReader(frames))
	var spec edm.Spec
	if err == nil {
		err = json.Unmarshal(snap.SpecJSON, &spec)
	}
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	cl, err := t.build(spec, nil, parent)
	if err != nil {
		return nil, err
	}
	if err := t.step("resume.fastforward", parent, cl, func() error { return cl.FastForward(ctx, snap.Fired) }); err != nil {
		return nil, err
	}
	t.b.count("resume.ff_events", float64(snap.Fired))
	sp = t.span("resume.verify", parent)
	err = snapshot.Verify(cl, snap)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var res *edm.Result
	err = t.step("resume.continue", parent, cl, func() (err error) {
		res, err = cl.ContinueContext(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.finish(res)
	return res, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// lastFrame keeps only the newest checkpoint frame, as edmd does: each
// frame arrives in one Write, so the newest Write is the newest frame.
type lastFrame struct{ buf []byte }

func (l *lastFrame) Write(p []byte) (int, error) {
	l.buf = append(l.buf[:0], p...)
	return len(p), nil
}

// checkAll checks each result of a unit against its cell and returns
// the number that failed, logging each failure.
func checkAll(ctx context.Context, b *bench, cells []experiment.CellSpec, rs []*edm.Result) int {
	bad := 0
	for i, c := range cells {
		if err := b.chk.check(ctx, c, rs[i]); err != nil {
			b.fail("%v", err)
			bad++
		}
	}
	return bad
}

// replayWorkload: one paper-shaped edm.Run per unit, closed loop.
type replayWorkload struct{}

func (replayWorkload) setup(ctx context.Context, b *bench, warm uint64) ([]*edm.Result, error) {
	c := runCell(warm)
	res, err := edm.Run(ctx, specOf(c))
	if err == nil {
		err = b.chk.check(ctx, c, res)
	}
	return []*edm.Result{res}, err
}

func (replayWorkload) unit(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error) {
	c := runCell(seed)
	var res *edm.Result
	var err error
	t0 := time.Now()
	if traced {
		ts := newTracedSim(b, u, 1)
		root := ts.span("unit", -1)
		res, err = ts.run(ctx, specOf(c), nil, root)
		b.tr.end(root)
	} else {
		res, err = edm.Run(ctx, specOf(c))
	}
	runS := time.Since(t0).Seconds()
	if err != nil {
		return unitOut{}, err
	}
	rs := []*edm.Result{res}
	return unitOut{runS: runS, results: rs, bad: checkAll(ctx, b, []experiment.CellSpec{c}, rs)}, nil
}

func (replayWorkload) close() {}

// checkpointWorkload: the replay spec checkpointed at the default
// cadence, then resumed from that run's newest frame.
type checkpointWorkload struct{ frame lastFrame }

func (w *checkpointWorkload) setup(ctx context.Context, b *bench, warm uint64) ([]*edm.Result, error) {
	out, err := w.unit(ctx, b, -1, warm, false)
	return out.results, err
}

func (w *checkpointWorkload) unit(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error) {
	c := runCell(seed)
	var res, resumed *edm.Result
	var err error
	var runS, resumeS float64
	if traced {
		ts := newTracedSim(b, u, 1)
		root := ts.span("unit", -1)
		t0 := time.Now()
		res, err = ts.run(ctx, specOf(c), &w.frame, root)
		runS = time.Since(t0).Seconds()
		if err == nil {
			t0 = time.Now()
			resumed, err = ts.resume(ctx, w.frame.buf, root)
			resumeS = time.Since(t0).Seconds()
		}
		b.tr.end(root)
	} else {
		t0 := time.Now()
		res, err = edm.Run(ctx, specOf(c), edm.WithCheckpoint(&w.frame, 0))
		runS = time.Since(t0).Seconds()
		if err == nil {
			t0 = time.Now()
			resumed, err = edm.Resume(ctx, bytes.NewReader(w.frame.buf))
			resumeS = time.Since(t0).Seconds()
		}
	}
	if err != nil {
		return unitOut{}, err
	}
	if u >= 0 {
		key := "resume_s"
		if traced {
			key = "traced.resume_s"
		}
		b.sample(key, resumeS)
	}
	rs := []*edm.Result{res, resumed}
	bad := checkAll(ctx, b, []experiment.CellSpec{c, c}, rs)
	if u < 0 && bad > 0 {
		return unitOut{}, fmt.Errorf("warm-up output check failed")
	}
	return unitOut{runS: runS, results: rs[1:], bad: bad}, nil
}

func (w *checkpointWorkload) close() {}

// sweepWorkload: the local Fig. 5/6/8 matrix, 7 traces × 4 policies ×
// {16, 20} OSDs, on an nproc-wide pool.
type sweepWorkload struct{ scratch sync.Pool }

func (w *sweepWorkload) setup(ctx context.Context, b *bench, warm uint64) ([]*edm.Result, error) {
	out, err := w.matrix(ctx, b, warm)
	if err == nil && out.bad > 0 {
		err = fmt.Errorf("warm-up output check failed")
	}
	return out.results, err
}

func (w *sweepWorkload) matrix(ctx context.Context, b *bench, seed uint64) (unitOut, error) {
	opts := sweepOptions(seed, b.nproc)
	opts.Context = ctx
	t0 := time.Now()
	cells := experiment.Matrix(opts)
	runS := time.Since(t0).Seconds()
	specs := experiment.MatrixSpecs(opts)
	rs := make([]*edm.Result, len(cells))
	for i, c := range cells {
		if c.Err != nil {
			return unitOut{}, fmt.Errorf("%s: %w", specs[i].Key(), c.Err)
		}
		rs[i] = c.Result
	}
	return unitOut{runS: runS, results: rs, bad: checkAll(ctx, b, specs, rs)}, nil
}

func (w *sweepWorkload) unit(ctx context.Context, b *bench, u int, seed uint64, traced bool) (unitOut, error) {
	if !traced {
		return w.matrix(ctx, b, seed)
	}
	return w.tracedMatrix(ctx, b, u, seed)
}

// tracedMatrix runs the matrix's cells through edm's own sequence on
// the benchmark's own nproc-wide pool, memoizing traces per (trace,
// seed) as the experiment harness does. Each cell is checked against
// the stored experiment.RunCell digest, which pins the equivalence.
func (w *sweepWorkload) tracedMatrix(ctx context.Context, b *bench, u int, seed uint64) (unitOut, error) {
	opts := sweepOptions(seed, b.nproc)
	specs := experiment.MatrixSpecs(opts)
	type memo struct {
		once sync.Once
		tr   *trace.Trace
		err  error
	}
	memos := map[string]*memo{}
	for _, s := range specs {
		if memos[s.Trace] == nil {
			memos[s.Trace] = &memo{}
		}
	}
	rs := make([]*edm.Result, len(specs))
	errs := make([]error, len(specs))
	cellS := make([]float64, len(specs))
	next := make(chan int)
	t0 := time.Now()
	root := b.tr.begin("unit", -1, u, 0)
	b.tr.nameLane(0, "matrix")
	var wg sync.WaitGroup
	for lane := 1; lane <= b.nproc; lane++ {
		b.tr.nameLane(lane, fmt.Sprintf("pool worker %d", lane))
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				s := specs[i]
				ts := &tracedSim{b: b, tr: b.tr, unit: u, lane: lane}
				c0 := time.Now()
				cs := ts.span("experiment.cell", root)
				m := memos[s.Trace]
				m.once.Do(func() {
					sp := ts.span("trace.generate", cs)
					m.tr, m.err = edm.BuildTrace(specOf(s))
					b.tr.end(sp)
					if m.err == nil {
						b.count("trace.records", float64(len(m.tr.Records)))
					}
				})
				if m.err != nil {
					errs[i] = m.err
					b.tr.end(cs)
					continue
				}
				spec := specOf(s)
				scr, _ := w.scratch.Get().(*cluster.Scratch)
				spec.Cluster.Scratch = scr
				cl, err := ts.build(spec, m.tr, cs)
				if err == nil {
					err = ts.step("sim.replay", cs, cl, func() (err error) {
						rs[i], err = cl.RunContext(ctx)
						return err
					})
					w.scratch.Put(cl.Release())
				}
				if err == nil {
					ts.finish(rs[i])
				}
				errs[i] = err
				b.tr.end(cs)
				cellS[i] = time.Since(c0).Seconds()
			}
		}(lane)
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	b.tr.end(root)
	runS := time.Since(t0).Seconds()
	for i, err := range errs {
		if err != nil {
			return unitOut{}, fmt.Errorf("%s: %w", specs[i].Key(), err)
		}
	}
	var busy float64
	for _, s := range cellS {
		busy += s
		b.sample("experiment.cell_s", s)
	}
	b.sample("experiment.idle_frac", 1-busy/(float64(b.nproc)*runS))
	return unitOut{runS: runS, results: rs, bad: checkAll(ctx, b, specs, rs)}, nil
}

func (w *sweepWorkload) close() {}
