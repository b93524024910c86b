package cluster

import (
	"context"
	"fmt"
	"strings"

	"edm/internal/metrics"
	"edm/internal/object"
	"edm/internal/raid"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
	"edm/internal/trace"
)

// stream replays one user's records in closed loop: the next record is
// issued when the previous one completes. The paper's replayer is
// multi-threaded with users evenly sharded across clients (§V.A), so
// each user stream progresses concurrently; the client grouping affects
// only where records are hosted, not their timing.
//
// A stream holds record positions (indexes into the trace) rather than
// copied records; the position lists of all streams share one backing
// array, carved by buildStreams.
type stream struct {
	c    *Cluster
	pos  []int32
	next int
}

// Fire implements sim.Action: the stream's t=0 kick-off event.
func (st *stream) Fire(now sim.Time) { st.c.issueNext(st, now) }

// arrival is an open-loop record injection event; the arrivals of a run
// live in one slice so scheduling them allocates nothing per record.
type arrival struct {
	c   *Cluster
	rec trace.Record
}

// Fire implements sim.Action.
func (a *arrival) Fire(now sim.Time) {
	a.c.startOp(pendingOp{rec: a.rec, issued: now}, now)
}

// opDone is the pooled completion record of an in-flight file
// operation: it fires when the operation's slowest sub-operation
// finishes, records the response time, and (closed loop) issues the
// stream's next record. Pooling it removes the per-operation closure
// allocation from the replay loop.
type opDone struct {
	c      *Cluster
	issued sim.Time
	st     *stream
	rec    trace.Record
	parked bool
}

// Fire implements sim.Action.
func (d *opDone) Fire(at sim.Time) {
	c := d.c
	st := d.st
	c.opCompleted(d.issued, at)
	if c.rec != nil {
		c.rec.RequestComplete(telemetry.RequestComplete{
			T: at, Issued: d.issued, User: int(d.rec.User), Op: d.rec.Kind.String(),
			File: int64(d.rec.File), Blocked: d.parked,
		})
	}
	c.releaseDone(d)
	if st != nil {
		c.issueNext(st, at)
	}
}

// acquireDone takes a completion record from the pool (or grows it).
// Records may arrive from an earlier run via Config.Scratch, so the
// cluster binding is refreshed.
func (c *Cluster) acquireDone() *opDone {
	if n := len(c.donePool); n > 0 {
		d := c.donePool[n-1]
		c.donePool = c.donePool[:n-1]
		d.c = c
		return d
	}
	return &opDone{c: c}
}

// releaseDone returns a fired completion record for reuse. Callers must
// copy any fields they still need first.
func (c *Cluster) releaseDone(d *opDone) {
	d.st = nil
	c.donePool = append(c.donePool, d)
}

// pendingOp is a file operation parked on a locked object (§V.D: "all
// the requests related to the objects being moved are blocked"). The
// issue time is preserved so the eventual response time includes the
// full wait — the Fig. 7 HDF spike.
type pendingOp struct {
	rec    trace.Record
	issued sim.Time
	st     *stream
	parked bool // parked on an HDF lock at least once
}

// Result summarises one replay.
type Result struct {
	Policy    string
	Trace     string
	OSDs      int
	Makespan  sim.Time
	Completed int
	Rejected  uint64 // operations dropped for lack of space (should be 0)

	// ThroughputOps is completed file operations per second of virtual
	// time — the Fig. 5 metric.
	ThroughputOps float64

	// MeanResponse is the mean per-operation response time in seconds;
	// ResponseSeries is its time-bucketed evolution (Fig. 7).
	MeanResponse    float64
	P99Response     float64
	ResponseSeries  []metrics.Point
	MeanRespMigrate float64 // mean response of ops served during migration

	// Wear (Fig. 1, Fig. 6).
	EraseCounts     []uint64 // per OSD
	WritePages      []uint64 // per OSD (host page writes)
	AggregateErases uint64
	AggregateWrites uint64

	// Migration costs (Fig. 8).
	MovedObjects int
	// BlockedOps counts file operations that parked on an HDF object
	// lock (§V.D) before completing.
	BlockedOps uint64
	// DegradedOps counts sub-operations served in RAID-5 degraded mode
	// after a device failure; LostOps counts operations whose stripe
	// had lost two columns (data unrecoverable).
	DegradedOps uint64
	LostOps     uint64
	// Declustered rebuild outcome (zero-valued without a Rebuild call).
	RebuiltObjects       int
	RebuiltBytes         int64
	UnrebuildableObjects int
	RebuildStart         sim.Time
	RebuildEnd           sim.Time
	MovedPages           int64
	MovedBytes           int64
	Migrations           int
	RemapEntries         int
	RemapPeak            int

	// Utilization spread at end of run.
	Utilizations []float64

	// BusyFractions is each OSD's service time divided by the makespan
	// — the load-imbalance picture behind the throughput numbers.
	BusyFractions []float64
	// PostMigrationBusy is the same measure restricted to the span
	// after the first migration round started (empty without one).
	PostMigrationBusy []float64

	MigrationStart sim.Time
	MigrationEnd   sim.Time
}

// Run replays the whole trace and returns the result. It may be called
// once per cluster.
func (c *Cluster) Run() (*Result, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: the replay polls ctx every
// sim.CancelCheckInterval events and, when it fires, returns promptly
// with an error wrapping ctx.Err(). An interrupted run produces no
// Result — the replay stopped mid-trace, so every figure metric would
// be truncated — and the cluster cannot be re-run.
func (c *Cluster) RunContext(ctx context.Context) (*Result, error) {
	if err := c.prepare(ctx); err != nil {
		return nil, err
	}
	c.armCheckpoint()
	if err := c.eng.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("cluster: run interrupted at %v (%d/%d ops): %w",
			c.eng.Now(), c.completedOps, c.totalOps, err)
	}
	return c.finish()
}

// FastForward replays the run from the start to exactly fired events —
// the checkpoint-restore path. The cluster must be freshly built (same
// config, trace and planner as the checkpointed run); determinism makes
// the replay reproduce the original execution event for event, and the
// caller verifies the arrival by diffing ExportState against the sealed
// capture. The checkpoint hook stays disarmed during the replay — a
// resume must not rewrite the checkpoints the original run already
// wrote — and is re-armed by ContinueContext.
func (c *Cluster) FastForward(ctx context.Context, fired uint64) error {
	if err := c.prepare(ctx); err != nil {
		return err
	}
	c.eng.SetCheckpoint(0, nil)
	if fired == 0 {
		return nil
	}
	if err := c.eng.RunContextFired(ctx, fired); err != nil {
		return fmt.Errorf("cluster: fast-forward to event %d: %w", fired, err)
	}
	return nil
}

// ContinueContext resumes a fast-forwarded run to completion: the
// second half of the RunContext split, with the checkpoint hook
// re-armed so the continuation keeps checkpointing on the original
// cadence (the cadence counts absolute fired events, so checkpoint
// positions match an uninterrupted run).
func (c *Cluster) ContinueContext(ctx context.Context) (*Result, error) {
	if c.totalOps == 0 {
		return nil, fmt.Errorf("cluster: ContinueContext without FastForward")
	}
	c.armCheckpoint()
	if err := c.eng.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("cluster: run interrupted at %v (%d/%d ops): %w",
			c.eng.Now(), c.completedOps, c.totalOps, err)
	}
	return c.finish()
}

// armCheckpoint installs the checkpoint hook on the engine when both
// the cadence and the hook are configured.
func (c *Cluster) armCheckpoint() {
	if c.cfg.CheckpointEvery > 0 && c.ckFn != nil {
		c.eng.SetCheckpoint(c.cfg.CheckpointEvery, c.ckFn)
	} else {
		c.eng.SetCheckpoint(0, nil)
	}
}

// prepare builds the replay schedule: stream sharding, migration
// triggers, metric sampling, and the initial event population. It is
// the first half of a run; eng.RunContext (or RunContextFired on a
// resume) then drains the schedule and finish() produces the Result.
func (c *Cluster) prepare(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: run not started: %w", err)
	}
	if c.totalOps > 0 {
		return fmt.Errorf("cluster: Run called twice")
	}
	c.buildStreams()
	c.totalOps = len(c.tr.Records)
	if c.totalOps == 0 {
		return fmt.Errorf("cluster: empty trace")
	}
	c.respAll.Grow(c.totalOps)
	if c.cfg.Migration == MigrateMidpoint {
		c.migrateAfter = c.totalOps / 2
	}
	if c.cfg.Migration == MigratePeriodic && c.planner != nil {
		// The wear monitor's cadence (§III.B.2: every minute). The
		// ticker is stopped when the last operation completes so the
		// event queue can drain.
		c.wearTicker = c.eng.Every(c.cfg.TemperatureInterval, func(now sim.Time) {
			c.maybeMigrate(now, false)
		})
	}
	if c.cfg.Metrics != nil {
		// Periodic metric snapshots on the engine clock, stopped with
		// the wear ticker when the last operation completes.
		c.cfg.Metrics.StartSampling(c.eng, c.cfg.SampleInterval)
	}

	if c.cfg.OpenLoopRate > 0 {
		// Open loop: records arrive on a fixed schedule in trace order.
		interval := float64(sim.Second) / c.cfg.OpenLoopRate
		arrivals := c.arrivals
		if cap(arrivals) < len(c.tr.Records) {
			arrivals = make([]arrival, len(c.tr.Records))
		} else {
			arrivals = arrivals[:len(c.tr.Records)]
		}
		for j, r := range c.tr.Records {
			at := sim.Time(float64(j) * interval)
			arrivals[j] = arrival{c: c, rec: r}
			c.eng.AtAction(at, &arrivals[j])
		}
		c.arrivals = arrivals
	} else {
		// Closed loop: kick every user stream at t=0, in first-appearance
		// order (the order buildStreams numbers them).
		for i := range c.streams {
			c.eng.AtAction(0, &c.streams[i])
		}
	}
	return nil
}

// finish audits and summarises a drained run.
func (c *Cluster) finish() (*Result, error) {
	if c.cfg.SelfCheck {
		if v := c.Audit(); len(v) > 0 {
			return nil, fmt.Errorf("cluster: self-check found %d violations:\n  %s",
				len(v), strings.Join(v, "\n  "))
		}
	}
	return c.buildResult(), nil
}

// buildStreams shards the trace's records into per-user streams,
// numbered in first-appearance order. Two passes over the records carve
// every stream's position list out of one shared buffer, replacing the
// old per-user map and append churn (the single largest allocation site
// of a replay). User ids are mapped through a dense lookup when the
// trace declares its user count; hand-built traces without one fall
// back to a map.
func (c *Cluster) buildStreams() {
	recs := c.tr.Records

	var lookupDense []int32
	var lookupMap map[int32]int32
	if u := c.tr.Users; u > 0 {
		if cap(c.userLookup) < u {
			c.userLookup = make([]int32, u)
		}
		lookupDense = c.userLookup[:u]
		for i := range lookupDense {
			lookupDense[i] = -1
		}
	} else {
		lookupMap = make(map[int32]int32)
	}
	lookup := func(u int32) int32 {
		if lookupDense != nil {
			return lookupDense[u]
		}
		if si, ok := lookupMap[u]; ok {
			return si
		}
		return -1
	}

	// Pass 1: count records per stream.
	cnt := c.userCnt[:0]
	for i := range recs {
		u := recs[i].User
		si := lookup(u)
		if si < 0 {
			si = int32(len(cnt))
			cnt = append(cnt, 0)
			if lookupDense != nil {
				lookupDense[u] = si
			} else {
				lookupMap[u] = si
			}
		}
		cnt[si]++
	}

	// Pass 2: carve each stream's position list and fill it.
	pos := c.posBuf
	if cap(pos) < len(recs) {
		pos = make([]int32, len(recs))
	} else {
		pos = pos[:len(recs)]
	}
	streams := c.streams
	if cap(streams) < len(cnt) {
		streams = make([]stream, len(cnt))
	} else {
		streams = streams[:len(cnt)]
	}
	off := 0
	for si, n := range cnt {
		streams[si] = stream{c: c, pos: pos[off : off : off+int(n)]}
		off += int(n)
	}
	for i := range recs {
		si := lookup(recs[i].User)
		streams[si].pos = append(streams[si].pos, int32(i))
	}
	c.streams, c.posBuf, c.userCnt = streams, pos, cnt
}

// issueNext executes the stream's next record and schedules the
// follow-up on completion. A record that targets a locked object parks
// until the lock's move commits.
func (c *Cluster) issueNext(cl *stream, now sim.Time) {
	if cl.next >= len(cl.pos) {
		return
	}
	rec := c.tr.Records[cl.pos[cl.next]]
	cl.next++
	c.startOp(pendingOp{rec: rec, issued: now, st: cl}, now)
}

// startOp runs (or parks) one file operation at virtual time now.
func (c *Cluster) startOp(p pendingOp, now sim.Time) {
	if obj, blocked := c.blockedObject(p.rec); blocked {
		c.blockedSubOps++
		p.parked = true
		if c.parked != nil {
			c.parked.Inc()
		}
		if c.rec != nil {
			c.rec.WaitPark(telemetry.WaitPark{T: now, Obj: int64(obj), User: int(p.rec.User)})
		}
		c.waiters[obj] = append(c.waiters[obj], p)
		return
	}
	if c.rec != nil {
		c.rec.RequestStart(telemetry.RequestStart{
			T: now, User: int(p.rec.User), Op: p.rec.Kind.String(),
			File: int64(p.rec.File), Offset: p.rec.Offset, Size: p.rec.Size,
		})
	}
	done := c.execute(p.rec, now)
	d := c.acquireDone()
	d.issued, d.st, d.rec, d.parked = p.issued, p.st, p.rec, p.parked
	c.eng.AtAction(done, d)
}

// blockedObject reports whether the record touches a locked object.
func (c *Cluster) blockedObject(rec trace.Record) (object.ID, bool) {
	if len(c.locked) == 0 {
		return 0, false
	}
	var accs []raid.Access
	switch rec.Kind {
	case trace.OpRead:
		accs = c.geom.AppendReadAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
	case trace.OpWrite:
		accs = c.geom.AppendWriteAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
	default:
		return 0, false
	}
	c.accsBuf = accs
	for _, a := range accs {
		id := c.objectID(rec.File, a.Obj)
		if c.locked[id] {
			return id, true
		}
	}
	return 0, false
}

// unlockObject releases an HDF lock and resumes every parked request at
// the release instant.
func (c *Cluster) unlockObject(id object.ID, at sim.Time) {
	if !c.locked[id] {
		return
	}
	delete(c.locked, id)
	parked := c.waiters[id]
	delete(c.waiters, id)
	if c.rec != nil {
		c.rec.WaitResume(telemetry.WaitResume{T: at, Obj: int64(id), Resumed: len(parked)})
	}
	for _, p := range parked {
		c.startOp(p, at) // may re-park on another locked object
	}
}

// opCompleted records response time and drives the midpoint trigger.
func (c *Cluster) opCompleted(issued, done sim.Time) {
	rt := (done - issued).Seconds()
	c.respAll.Observe(rt)
	c.respSeries.Observe(done.Seconds(), rt)
	if c.migrating {
		c.respMigr.Observe(rt)
	}
	c.completedOps++
	if c.migrateAfter > 0 && c.completedOps >= c.migrateAfter {
		c.migrateAfter = 0
		c.maybeMigrate(done, true)
	}
	if c.completedOps == c.totalOps {
		if c.wearTicker != nil {
			c.wearTicker.Stop()
		}
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.StopSampling()
		}
	}
}

// execute fans a trace record out to the MDS or the OSDs and returns
// its completion time.
func (c *Cluster) execute(rec trace.Record, now sim.Time) sim.Time {
	switch rec.Kind {
	case trace.OpOpen, trace.OpClose:
		// Metadata ops are served by the MDS; the paper's MDS is not
		// the bottleneck, so a fixed latency models it.
		return now + c.cfg.MDSLatency
	case trace.OpRead, trace.OpWrite:
		if c.anyFailedTarget(rec) {
			return c.degradedFanOut(rec, now)
		}
		if rec.Kind == trace.OpRead {
			return c.executeRead(rec, now)
		}
		return c.executeWrite(rec, now)
	}
	return now + c.cfg.MDSLatency
}

func (c *Cluster) executeRead(rec trace.Record, now sim.Time) sim.Time {
	c.accsBuf = c.geom.AppendReadAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
	return c.fanOut(rec.File, c.accsBuf, now)
}

func (c *Cluster) executeWrite(rec trace.Record, now sim.Time) sim.Time {
	c.accsBuf = c.geom.AppendWriteAccesses(c.accsBuf[:0], rec.Offset, rec.Size)
	return c.fanOut(rec.File, c.accsBuf, now)
}

// fanOut groups a file operation's accesses by object, performs one
// sub-operation per object, and returns the slowest completion time.
// The per-object group is assembled in a reused scratch buffer; subOp
// only reads it.
func (c *Cluster) fanOut(file trace.FileID, accs []raid.Access, now sim.Time) sim.Time {
	done := now
	// Resolve the file's dense object-index base once; every traced
	// record hits this path (trace validation couples records to declared
	// files), the id-deriving fallback only serves hand-built callers.
	base := int32(-1)
	if r := c.rankOf(file); r >= 0 {
		base = r * c.k
	}
	// Group accesses by object index, preserving order. K is small
	// (paper: 4), so a linear scan beats a map.
	var seen [16]bool
	for i, a := range accs {
		if a.Obj < len(seen) && seen[a.Obj] {
			continue
		}
		if a.Obj < len(seen) {
			seen[a.Obj] = true
		}
		group := append(c.groupBuf[:0], a)
		for j := i + 1; j < len(accs); j++ {
			if accs[j].Obj == a.Obj {
				group = append(group, accs[j])
			}
		}
		c.groupBuf = group[:0]
		var end sim.Time
		if base >= 0 {
			end = c.subOpAt(base+int32(a.Obj), group, now)
		} else {
			end = c.subOp(c.objectID(file, a.Obj), group, now)
		}
		if end > done {
			done = end
		}
	}
	return done
}

// subOp performs one object-level sub-operation (a batch of ranges on
// one object) through the owning OSD's serial queue and returns its
// completion time. Flash state is mutated eagerly (admission order
// equals service order under the serial-queue model); completion time
// reflects queueing, HDF locks, the fixed overhead, and the device
// latency.
func (c *Cluster) subOp(id object.ID, accs []raid.Access, now sim.Time) sim.Time {
	if oi := c.indexOf(id); oi >= 0 {
		return c.subOpAt(oi, accs, now)
	}
	// ID-keyed fallback for objects outside the dense tables.
	osd := c.osds[c.locate(id)]
	start := now
	if osd.busyUntil > start {
		start = osd.busyUntil
	}
	ps := osd.Store.PageSize()
	var dev sim.Time
	for _, a := range accs {
		if a.PreRead {
			lat, err := osd.Store.Read(id, a.Offset, a.Length)
			if err == nil {
				dev += lat
			}
			if !a.Write {
				osd.Tracker.RecordRead(temperature.ObjectID(id), int(pagesOf(a.Length, ps)), now)
			}
		}
		if a.Write {
			lat, err := osd.Store.Write(id, a.Offset, a.Length)
			dev += lat
			if err != nil {
				c.rejected++
			} else {
				osd.Tracker.RecordWrite(temperature.ObjectID(id), int(pagesOf(a.Length, ps)), now)
				if c.rec != nil {
					c.rec.FlashWrite(telemetry.FlashWrite{
						T: now, OSD: osd.ID, Obj: int64(id), Pages: pagesOf(a.Length, ps),
					})
				}
			}
		}
	}
	return c.finishSubOp(osd, dev, start, now)
}

// subOpAt is subOp for a dense-table object: owner, store slot and
// tracker slot come straight off the tables, so the entire sub-operation
// performs no map lookups and no allocations.
func (c *Cluster) subOpAt(oi int32, accs []raid.Access, now sim.Time) sim.Time {
	osd := c.osds[c.owner[oi]]
	slot := c.oslot[oi]
	tslot := temperature.Slot(slot)
	start := now
	if osd.busyUntil > start {
		start = osd.busyUntil
	}
	ps := osd.Store.PageSize()
	var dev sim.Time
	for _, a := range accs {
		if a.PreRead {
			lat, err := osd.Store.ReadAt(slot, a.Offset, a.Length)
			if err == nil {
				dev += lat
			}
			if !a.Write {
				osd.Tracker.TouchRead(tslot, int(pagesOf(a.Length, ps)), now)
			}
		}
		if a.Write {
			lat, err := osd.Store.WriteAt(slot, a.Offset, a.Length)
			dev += lat
			if err != nil {
				c.rejected++
			} else {
				osd.Tracker.TouchWrite(tslot, int(pagesOf(a.Length, ps)), now)
				if c.rec != nil {
					c.rec.FlashWrite(telemetry.FlashWrite{
						T: now, OSD: osd.ID, Obj: int64(c.oids[oi]), Pages: pagesOf(a.Length, ps),
					})
				}
			}
		}
	}
	return c.finishSubOp(osd, dev, start, now)
}

// finishSubOp applies the shared queueing/accounting tail of a
// sub-operation and returns its completion time.
func (c *Cluster) finishSubOp(osd *OSD, dev, start, now sim.Time) sim.Time {
	dev = osd.scaledLat(dev, now)
	doneAt := start + c.cfg.NetOverhead + dev
	osd.busyUntil = doneAt
	osd.subOps++
	osd.busyTime += c.cfg.NetOverhead + dev
	osd.load.Observe((doneAt - now).Seconds())
	if c.rec != nil {
		c.rec.QueueSample(telemetry.QueueSample{
			T: now, OSD: osd.ID, Backlog: doneAt - now, Wait: start - now,
		})
	}
	return doneAt
}

func pagesOf(bytes, pageSize int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + pageSize - 1) / pageSize
}

func (c *Cluster) buildResult() *Result {
	if c.cfg.Metrics != nil {
		// Close the snapshot series with a final row at the makespan, so
		// short runs (makespan < SampleInterval) still export state.
		c.cfg.Metrics.Sample(c.eng.Now())
	}
	res := &Result{
		Policy:    c.policyName(),
		Trace:     c.tr.Name,
		OSDs:      len(c.osds),
		Makespan:  c.eng.Now(),
		Completed: c.completedOps,
		Rejected:  c.rejected,

		MovedObjects: len(c.moves),
		BlockedOps:   c.blockedSubOps,
		DegradedOps:  c.degradedOps,
		LostOps:      c.lostOps,

		RebuiltObjects:       c.rebuilt,
		RebuiltBytes:         c.rebuiltBytes,
		UnrebuildableObjects: c.unrebuildable,
		RebuildStart:         c.rebuildStart,
		RebuildEnd:           c.rebuildEnd,
		MovedPages:           c.movedPages,
		MovedBytes:           c.movedBytes,
		Migrations:           c.migrations,

		MigrationStart: c.migStart,
		MigrationEnd:   c.migEnd,
	}
	if res.Makespan > 0 {
		res.ThroughputOps = float64(res.Completed) / res.Makespan.Seconds()
	}
	res.MeanResponse = c.respAll.Mean()
	res.P99Response = c.respAll.Quantile(0.99)
	res.ResponseSeries = c.respSeries.Points()
	res.MeanRespMigrate = c.respMigr.Mean()

	for _, o := range c.osds {
		st := o.SSD.Stats()
		res.EraseCounts = append(res.EraseCounts, st.Erases)
		res.WritePages = append(res.WritePages, st.HostPageWrites)
		res.AggregateErases += st.Erases
		res.AggregateWrites += st.HostPageWrites
		res.Utilizations = append(res.Utilizations, o.SSD.Utilization())
		busy := 0.0
		if res.Makespan > 0 {
			busy = o.busyTime.Seconds() / res.Makespan.Seconds()
		}
		res.BusyFractions = append(res.BusyFractions, busy)
		if c.migrations > 0 && res.Makespan > c.migStart {
			span := (res.Makespan - c.migStart).Seconds()
			res.PostMigrationBusy = append(res.PostMigrationBusy,
				(o.busyTime-o.busyAtMig).Seconds()/span)
		}
	}
	rs := c.remap.Stats()
	res.RemapEntries = rs.Entries
	res.RemapPeak = rs.PeakEntries
	return res
}

func (c *Cluster) policyName() string {
	if c.planner == nil || c.cfg.Migration == MigrateNever {
		return "baseline"
	}
	return c.planner.Name()
}
