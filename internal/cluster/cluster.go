package cluster

import (
	"fmt"
	"sort"

	"edm/internal/flash"
	"edm/internal/metrics"
	"edm/internal/migration"
	"edm/internal/object"
	"edm/internal/placement"
	"edm/internal/raid"
	"edm/internal/remap"
	"edm/internal/rng"
	"edm/internal/sim"
	"edm/internal/telemetry"
	"edm/internal/temperature"
	"edm/internal/trace"
	"edm/internal/wear"
)

// OSD is one object storage device: an SSD, its object store, the
// access tracker, and a serial service queue modelled by a busy-until
// horizon (requests are admitted in event order, which in a closed-loop
// replay equals virtual-time order).
type OSD struct {
	ID      int
	Group   int
	SSD     *flash.SSD
	Store   *object.Store
	Tracker *temperature.Tracker

	busyUntil sim.Time
	load      *metrics.EWMA

	// Transient latency degradation (SlowOSD): while now < slowUntil,
	// device service takes slowFactor times its normal latency.
	slowUntil  sim.Time
	slowFactor float64

	// Per-device counters for the current run.
	subOps    uint64
	busyTime  sim.Time
	busyAtMig sim.Time // busyTime when the migration round started
}

// scaledLat applies the device's transient slowdown window, if open at
// now, to a service latency. Queueing and fixed overheads are not
// scaled — the degradation models a slow medium, not a slow network.
func (o *OSD) scaledLat(lat, now sim.Time) sim.Time {
	if o.slowFactor > 1 && now < o.slowUntil {
		return sim.Time(float64(lat) * o.slowFactor)
	}
	return lat
}

// BusyTime returns the cumulative device service time (queueing
// excluded), a direct load measure.
func (o *OSD) BusyTime() sim.Time { return o.busyTime }

// LoadFactor returns the EWMA of served request latencies in seconds —
// CMT's load metric.
func (o *OSD) LoadFactor() float64 { return o.load.Value() }

// Cluster is the simulated storage system.
type Cluster struct {
	cfg    Config
	eng    *sim.Engine
	layout placement.Layout
	geom   raid.Geometry
	osds   []*OSD
	remap  *remap.Table
	stream *rng.Stream

	tr       *trace.Trace
	fileSize map[trace.FileID]int64

	planner    migration.Planner
	migrating  bool
	wearTicker *sim.Ticker

	// Checkpoint hook (SetCheckpoint) and queue-capture scratch. The
	// hook is armed on the engine only while the run is live — never
	// during a FastForward replay, which must not rewrite checkpoints.
	ckFn     func(now sim.Time) error
	queueBuf []sim.QueueEntry

	// Telemetry (nil/zero when disabled — the hot paths nil-check).
	rec    telemetry.Recorder
	parked *telemetry.Counter

	// HDF blocking (§V.D): requests whose target object is locked by an
	// in-flight move park on a wait list until the move commits.
	locked  map[object.ID]bool
	waiters map[object.ID][]pendingOp

	// Failure injection (RAID-5 degraded mode) and declustered rebuild.
	failed        map[int]bool
	failedAt      sim.Time
	degradedOps   uint64
	lostOps       uint64
	rebuilt       int
	rebuiltBytes  int64
	unrebuildable int
	rebuildStart  sim.Time
	rebuildEnd    sim.Time

	// Run bookkeeping.
	totalOps     int
	completedOps int
	migrateAfter int // completed-op count that triggers the midpoint shuffle
	respSeries   *metrics.TimeSeries
	respAll      *metrics.Histogram
	respMigr     *metrics.Histogram // ops served while migration in flight
	rejected     uint64

	// Dense object metadata tables: every traced object gets a stable
	// index oi = rank(file)·k + objInFile, where ranks number the trace's
	// files in ascending-id order — so index order equals object-id
	// order, which the planners' tiebreak relies on. The replay hot path
	// resolves owner OSD, store slot and tracker slot by slice indexing
	// instead of map lookups; ids outside the trace (tests, chaos) fall
	// back to the ID-keyed shims.
	k         int32
	fileRanks []int32                // dense file id → rank; -1 for gaps
	rankByID  map[trace.FileID]int32 // fallback for sparse/huge file ids
	oids      []object.ID
	owner     []int32        // OSD currently holding the object
	oslot     []object.Index // store (== tracker) slot on the owner
	ohome     []int32        // cached hash-placement home
	wmodel    wear.Model

	// Hot-path scratch, reused across operations so the replay loop is
	// allocation-free in steady state (and recycled across runs through
	// Config.Scratch).
	accsBuf  []raid.Access
	groupBuf []raid.Access
	donePool []*opDone

	// Run and snapshot scratch (recycled through Config.Scratch too).
	streams    []stream
	posBuf     []int32
	userCnt    []int32
	userLookup []int32
	arrivals   []arrival
	snapDevs   []migration.DeviceState
	snapObjs   []migration.ObjectInfo
	planSnap   migration.Snapshot

	moves         []migration.Move
	blockedSubOps uint64
	// movesCommitted counts migration moves that actually committed
	// (planned moves may be skipped or aborted); together with rebuilt
	// it must equal the remap table's Record count — an Audit invariant.
	movesCommitted uint64
	movedPages     int64
	movedBytes     int64
	migrations     int

	migStart, migEnd sim.Time
}

// New builds a cluster sized for the given trace: every SSD gets the
// same capacity, chosen so the most loaded OSD sits at about the target
// utilization (§IV). The trace's files are created and populated, and
// the warm-up churn is applied, before New returns; the engine clock is
// still zero and all wear counters are reset.
func New(cfg Config, tr *trace.Trace) (*Cluster, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:        cfg,
		eng:        sim.New(),
		layout:     cfg.layout(),
		geom:       cfg.geometry(),
		remap:      remap.New(),
		stream:     rng.New(cfg.Seed ^ 0xedc0ffee),
		tr:         tr,
		fileSize:   make(map[trace.FileID]int64, len(tr.Files)),
		locked:     make(map[object.ID]bool),
		waiters:    make(map[object.ID][]pendingOp),
		failed:     make(map[int]bool),
		respSeries: metrics.NewTimeSeries(cfg.ResponseBucket.Seconds()),
		respAll:    &metrics.Histogram{},
		respMigr:   &metrics.Histogram{},
	}
	for _, f := range tr.Files {
		c.fileSize[f.ID] = f.Size
	}

	if err := c.buildDevices(); err != nil {
		return nil, err
	}
	c.buildObjectTables()
	if err := c.createFiles(); err != nil {
		return nil, err
	}
	if !cfg.WarmupDisabled {
		c.warmup()
	}
	for _, o := range c.osds {
		o.SSD.ResetStats()
	}
	// Telemetry attaches after warm-up so the event log and metric
	// columns describe the measured replay only, like the wear counters.
	c.rec = cfg.Recorder
	if c.rec != nil {
		for _, o := range c.osds {
			o.SSD.SetProbe(flashProbe{c: c, osd: o.ID})
		}
	}
	if cfg.Metrics != nil {
		c.registerMetrics(cfg.Metrics)
	}
	c.adopt(cfg.Scratch)
	return c, nil
}

// flashProbe forwards FTL-internal events to the telemetry recorder,
// stamping the engine clock and the device id the SSD does not know.
type flashProbe struct {
	c   *Cluster
	osd int
}

func (p flashProbe) OnErase(validRatio float64, moved int) {
	p.c.rec.FlashErase(telemetry.FlashErase{
		T: p.c.eng.Now(), OSD: p.osd, ValidRatio: validRatio, Moved: moved,
	})
}

// registerMetrics publishes the cluster's observable state as named
// telemetry columns. Registration order fixes the CSV column order.
func (c *Cluster) registerMetrics(reg *telemetry.Registry) {
	reg.Gauge("completed_ops", func(sim.Time) float64 { return float64(c.completedOps) })
	reg.Gauge("moved_objects", func(sim.Time) float64 { return float64(len(c.moves)) })
	reg.Gauge("remap_entries", func(sim.Time) float64 { return float64(c.remap.Stats().Entries) })
	c.parked = reg.Counter("parked_ops")
	// The response distribution so far, read off respAll, which already
	// holds every op's response time.
	reg.Gauge("response_s.count", func(sim.Time) float64 { return float64(c.respAll.Count()) })
	reg.Gauge("response_s.mean", func(sim.Time) float64 { return c.respAll.Mean() })
	reg.Gauge("response_s.p99", func(sim.Time) float64 { return c.respAll.Quantile(0.99) })
	for _, o := range c.osds {
		o := o
		reg.Gauge(fmt.Sprintf("osd%d.erases", o.ID), func(sim.Time) float64 {
			return float64(o.SSD.Stats().Erases)
		})
		reg.Gauge(fmt.Sprintf("osd%d.write_pages", o.ID), func(sim.Time) float64 {
			return float64(o.SSD.Stats().HostPageWrites)
		})
		reg.Gauge(fmt.Sprintf("osd%d.util", o.ID), func(sim.Time) float64 {
			return o.SSD.Utilization()
		})
		reg.Gauge(fmt.Sprintf("osd%d.backlog_ms", o.ID), func(now sim.Time) float64 {
			if o.busyUntil <= now {
				return 0
			}
			return float64(o.busyUntil-now) / float64(sim.Millisecond)
		})
	}
}

// Engine exposes the simulation engine (examples and tests).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Config returns the cluster's configuration with defaults applied.
func (c *Cluster) Config() Config { return c.cfg }

// Layout returns the placement geometry.
func (c *Cluster) Layout() placement.Layout { return c.layout }

// OSD returns device i.
func (c *Cluster) OSD(i int) *OSD { return c.osds[i] }

// OSDs returns the device count.
func (c *Cluster) OSDs() int { return len(c.osds) }

// Remap returns the remapping table.
func (c *Cluster) Remap() *remap.Table { return c.remap }

// SetPlanner installs the migration policy (nil for the baseline).
func (c *Cluster) SetPlanner(p migration.Planner) { c.planner = p }

// SetCheckpoint installs the checkpoint hook, called between simulation
// events every Config.CheckpointEvery fired events while a run (or a
// resumed continuation) is live. The hook lives outside Config so that
// Config stays JSON-serializable; install it after New and before Run.
// A nil fn (or CheckpointEvery == 0) disables checkpointing.
func (c *Cluster) SetCheckpoint(fn func(now sim.Time) error) { c.ckFn = fn }

// objectID derives the cluster-unique object id of a file's idx-th
// object.
func (c *Cluster) objectID(f trace.FileID, idx int) object.ID {
	return object.ID(int64(f)*int64(c.cfg.ObjectsPerFile) + int64(idx))
}

// objectHome returns the hash-placement home OSD of an object id.
func (c *Cluster) objectHome(id object.ID) int {
	k := int64(c.cfg.ObjectsPerFile)
	return c.layout.HomeOf(int64(id)/k, int(int64(id)%k))
}

// locate returns the OSD currently holding the object (remap-aware).
func (c *Cluster) locate(id object.ID) int {
	return c.remap.Lookup(id, c.objectHome(id))
}

// rankOf returns the file's dense rank, or −1 for files outside the
// trace.
func (c *Cluster) rankOf(f trace.FileID) int32 {
	if c.fileRanks != nil {
		if f < 0 || int64(f) >= int64(len(c.fileRanks)) {
			return -1
		}
		return c.fileRanks[f]
	}
	if r, ok := c.rankByID[f]; ok {
		return r
	}
	return -1
}

// indexOf returns the object's dense table index, or −1 for ids outside
// the trace's object population.
func (c *Cluster) indexOf(id object.ID) int32 {
	if id < 0 {
		return -1
	}
	k := int64(c.k)
	r := c.rankOf(trace.FileID(int64(id) / k))
	if r < 0 {
		return -1
	}
	return r*c.k + int32(int64(id)%k)
}

// ownerOf is locate through the dense table when the object has one.
func (c *Cluster) ownerOf(id object.ID) int {
	if oi := c.indexOf(id); oi >= 0 {
		return int(c.owner[oi])
	}
	return c.remap.Lookup(id, c.objectHome(id))
}

// buildObjectTables assigns every traced object its dense index and
// prefills the id/owner/home columns (slots are bound in createFiles).
// Ranks follow ascending file-id order; the trace generator mints dense
// file ids so the rank lookup is usually a plain slice, with a map
// fallback for decoded traces with sparse ids.
func (c *Cluster) buildObjectTables() {
	k := c.cfg.ObjectsPerFile
	c.k = int32(k)
	n := len(c.tr.Files)
	ids := make([]trace.FileID, n)
	for i, f := range c.tr.Files {
		ids[i] = f.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	dense := true
	var maxID int64 = -1
	if n > 0 {
		if ids[0] < 0 {
			dense = false
		}
		maxID = int64(ids[n-1])
	}
	if dense && maxID < int64(4*n+1024) {
		ranks := make([]int32, maxID+1)
		for i := range ranks {
			ranks[i] = -1
		}
		for r, f := range ids {
			ranks[int(f)] = int32(r)
		}
		c.fileRanks = ranks
	} else {
		c.rankByID = make(map[trace.FileID]int32, n)
		for r, f := range ids {
			c.rankByID[f] = int32(r)
		}
	}

	total := n * k
	c.oids = make([]object.ID, total)
	c.owner = make([]int32, total)
	c.oslot = make([]object.Index, total)
	c.ohome = make([]int32, 0, total)
	for _, f := range ids {
		c.ohome = c.layout.AppendHomes(c.ohome, int64(f))
	}
	for r, f := range ids {
		for i := 0; i < k; i++ {
			oi := r*k + i
			c.oids[oi] = c.objectID(f, i)
			c.owner[oi] = c.ohome[oi]
		}
	}
	c.wmodel = wear.NewModel(c.osds[0].SSD.Config().PagesPerBlock, wear.DefaultSigma)
}

// buildDevices sizes and constructs the SSDs. All SSDs are identical;
// capacity is derived from the heaviest OSD's placed data so that its
// utilization is about the target.
func (c *Cluster) buildDevices() error {
	pageSize := c.cfg.Flash.PageSize
	if pageSize == 0 {
		pageSize = flash.DefaultPageSize
	}
	ppb := c.cfg.Flash.PagesPerBlock
	if ppb == 0 {
		ppb = flash.DefaultPagesPerBlock
	}

	// Dry placement pass: pages each OSD will hold.
	perOSD := make([]int64, c.cfg.OSDs)
	for _, f := range c.tr.Files {
		for idx := 0; idx < c.cfg.ObjectsPerFile; idx++ {
			objBytes := c.geom.ObjectDataBytes(f.Size, idx)
			pages := (objBytes + pageSize - 1) / pageSize
			if pages == 0 {
				pages = 1
			}
			perOSD[c.layout.HomeOf(int64(f.ID), idx)] += pages
		}
	}
	var maxPages int64 = 1
	for _, p := range perOSD {
		if p > maxPages {
			maxPages = p
		}
	}

	// Physical sizing: live/total == target at the heaviest device,
	// plus the GC reserve excluded from the logical space.
	low, high := c.cfg.Flash.GCLowBlocks, c.cfg.Flash.GCHighBlocks
	if low == 0 {
		low = 2
	}
	if high == 0 {
		high = low + 2
	}
	reserveBlocks := int64(high + 1)
	totalPages := int64(float64(maxPages)/c.cfg.TargetMaxUtilization) + 1
	blocks := (totalPages+int64(ppb)-1)/int64(ppb) + reserveBlocks
	if int64(c.cfg.Flash.Blocks) > blocks {
		blocks = int64(c.cfg.Flash.Blocks)
	}

	fcfg := c.cfg.Flash
	fcfg.PageSize = pageSize
	fcfg.PagesPerBlock = ppb
	fcfg.Blocks = int(blocks)
	fcfg.GCLowBlocks = low
	fcfg.GCHighBlocks = high

	c.osds = make([]*OSD, c.cfg.OSDs)
	for i := range c.osds {
		ssd, err := flash.New(fcfg)
		if err != nil {
			return fmt.Errorf("cluster: building SSD %d: %w", i, err)
		}
		c.osds[i] = &OSD{
			ID:      i,
			Group:   c.layout.GroupOf(i),
			SSD:     ssd,
			Store:   object.NewStore(ssd),
			Tracker: temperature.New(c.cfg.TemperatureInterval),
			load:    c.cfg.newLoadEWMA(),
		}
	}
	return nil
}

// createFiles pre-creates and populates every traced file (§V.A),
// binding each object's store slot and tracker row to its dense index.
func (c *Cluster) createFiles() error {
	for _, f := range c.tr.Files {
		base := c.rankOf(f.ID) * c.k
		for idx := 0; idx < c.cfg.ObjectsPerFile; idx++ {
			oi := base + int32(idx)
			id := c.oids[oi]
			osd := c.osds[c.ohome[oi]]
			objBytes := c.geom.ObjectDataBytes(f.Size, idx)
			slot, err := osd.Store.CreateIndexed(id, objBytes)
			if err != nil {
				return fmt.Errorf("cluster: creating object %d on OSD %d: %w", id, osd.ID, err)
			}
			osd.Tracker.InstallAt(temperature.Slot(slot), temperature.ObjectID(id))
			c.oslot[oi] = slot
			if _, err := osd.Store.PopulateAt(slot); err != nil {
				return fmt.Errorf("cluster: populating object %d on OSD %d: %w", id, osd.ID, err)
			}
		}
	}
	return nil
}

// warmup writes dummy data equal to each SSD's capacity (uniformly over
// the live objects) so the replay starts in wear steady-state (§IV).
func (c *Cluster) warmup() {
	for _, o := range c.osds {
		ids := o.Store.IDs()
		if len(ids) == 0 {
			continue
		}
		stream := c.stream.Split(uint64(o.ID) + 101)
		target := o.SSD.TotalPages()
		// Populate already wrote the live set once.
		written := int64(o.SSD.Stats().HostPageWrites)
		for written < target {
			id := ids[stream.Intn(len(ids))]
			pages := o.Store.Pages(id)
			if pages <= 0 {
				continue
			}
			pg := stream.Int63n(pages)
			n := int64(8)
			if pg+n > pages {
				n = pages - pg
			}
			if _, err := o.Store.Write(id, pg*o.Store.PageSize(), n*o.Store.PageSize()); err != nil {
				break // device saturated; steady state reached anyway
			}
			written += n
		}
	}
}

// BlockedSubOps counts sub-operations that waited on an HDF object lock
// (diagnostics).
func (c *Cluster) BlockedSubOps() uint64 { return c.blockedSubOps }
