// Package cluster simulates the paper's storage testbed (§IV): a pNFS
// cluster of one metadata server and N object storage devices, each
// backed by a simulated SSD, replayed against by closed-loop clients.
//
// The simulation is a deterministic discrete-event model. Each OSD
// serves its request queue serially (the paper's osc-osd "handles them
// serially"); a file operation fans out to the objects of its RAID-5
// stripe and completes when the slowest sub-operation completes.
// Migration I/O flows through the same queues, so migration competes
// with foreground traffic for device bandwidth exactly as in the paper's
// Fig. 7 experiment.
package cluster

import (
	"errors"
	"fmt"

	"edm/internal/flash"
	"edm/internal/metrics"
	"edm/internal/placement"
	"edm/internal/raid"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

// ErrInvalidConfig tags every cluster-configuration validation failure
// (bad OSD count, out-of-range utilization target, invalid layout or
// RAID geometry) so callers can branch with errors.Is instead of
// matching message text.
var ErrInvalidConfig = errors.New("invalid cluster configuration")

// MigrationMode selects when the migration controller runs.
type MigrationMode int

const (
	// MigrateNever runs no migration (the baseline system).
	MigrateNever MigrationMode = iota
	// MigrateMidpoint forces one migration when half of the trace's
	// operations have completed (§V.A: "we enforce the OSDs to shuffle
	// objects in the middle time point of trace replay").
	MigrateMidpoint
	// MigratePeriodic evaluates the planner's own trigger condition on
	// the wear monitor's cadence (§III.B.2: every minute).
	MigratePeriodic
)

// String implements fmt.Stringer.
func (m MigrationMode) String() string {
	switch m {
	case MigrateNever:
		return "never"
	case MigrateMidpoint:
		return "midpoint"
	case MigratePeriodic:
		return "periodic"
	}
	return fmt.Sprintf("MigrationMode(%d)", int(m))
}

// ParseMigrationMode maps a user-facing name (never, midpoint,
// periodic) to a mode. Unknown values yield an error naming every
// valid option.
func ParseMigrationMode(s string) (MigrationMode, error) {
	switch s {
	case "never":
		return MigrateNever, nil
	case "midpoint":
		return MigrateMidpoint, nil
	case "periodic":
		return MigratePeriodic, nil
	}
	return 0, fmt.Errorf("unknown migration mode %q (valid: never, midpoint, periodic)", s)
}

// MarshalText encodes the mode by name, so specs holding one serialize
// to readable JSON (the wire format cell specs ship to edmd workers).
func (m MigrationMode) MarshalText() ([]byte, error) {
	switch m {
	case MigrateNever, MigrateMidpoint, MigratePeriodic:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("cluster: cannot marshal %v", m)
}

// UnmarshalText decodes the names MarshalText produces.
func (m *MigrationMode) UnmarshalText(text []byte) error {
	v, err := ParseMigrationMode(string(text))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	*m = v
	return nil
}

// Config describes a simulated cluster.
type Config struct {
	// OSDs is the number of object storage devices (each with one SSD).
	OSDs int
	// Groups is m, the number of placement groups (§III.A; paper: 4).
	Groups int
	// ObjectsPerFile is k, the RAID-5 stripe width (paper: 4).
	ObjectsPerFile int
	// GroupRotate switches to group-rotating placement, which supports
	// the §III.D wear-staggering configuration below.
	GroupRotate bool
	// GroupSizes optionally assigns explicit (typically unequal) device
	// counts per group — §III.D's "differentiating the number of SSDs
	// assigned to each group". Requires GroupRotate.
	GroupSizes []int
	// StripeUnit is the bytes of consecutive file data per object
	// before rotating to the next (default 64KB).
	StripeUnit int64
	// Clients is the number of load generators; 0 means OSDs/2 (§V.A).
	Clients int

	// TargetMaxUtilization sizes every SSD identically so the
	// most-utilized device lands at about this utilization (§IV: "about
	// 70 percent"). Default 0.7.
	TargetMaxUtilization float64
	// Flash is the per-SSD template; Blocks is computed from the trace
	// footprint and TargetMaxUtilization (a non-zero Blocks is a floor).
	Flash flash.Config

	// WarmupDisabled skips the steady-state warm-up (§IV: dummy data
	// equal to each SSD's capacity is written before the replay, then
	// the counters are cleared). The zero value warms up, matching the
	// paper; tests may disable it for speed.
	WarmupDisabled bool

	// MDSLatency is the fixed service time of metadata operations
	// (open/close). Default 150µs.
	MDSLatency sim.Time
	// NetOverhead is the per-suboperation request overhead (network +
	// CPU). Default 100µs.
	NetOverhead sim.Time

	// TemperatureInterval is the Def.-1 decay interval (default 1
	// minute, the wear monitor's cadence).
	TemperatureInterval sim.Time
	// LoadEWMAAlpha smooths the per-OSD latency load factor CMT uses.
	// Default 0.3.
	LoadEWMAAlpha float64

	// ResponseBucket is the Fig.-7 time-series bucket width (default 3
	// minutes).
	ResponseBucket sim.Time

	// Migration selects the controller mode.
	Migration MigrationMode

	// OpenLoopRate switches the replayer from closed loop (each user
	// stream issues its next record when the previous completes — the
	// default) to open loop: records arrive on a fixed schedule at this
	// aggregate rate in operations per second of virtual time,
	// regardless of completions. Open loop exposes overload: a
	// saturated hot OSD accumulates queue without the closed loop's
	// self-limiting, which is the regime where migration's balancing
	// pays off most visibly. 0 keeps the closed loop.
	OpenLoopRate float64

	// Seed drives all randomized decisions (none today — the cluster
	// is fully deterministic — but reserved for think-time extensions).
	Seed uint64

	// CheckpointEvery arms the checkpoint cadence: every this many fired
	// simulation events, the hook installed with Cluster.SetCheckpoint
	// runs between events. The cadence counts absolute fired events, so
	// a resumed run checkpoints at the same event numbers as an
	// uninterrupted one. 0 (the default) disables checkpointing. The
	// hook itself is a func and therefore lives outside Config — Config
	// must stay JSON-serializable for the wire spec contract.
	CheckpointEvery uint64

	// SelfCheck makes Run audit the cluster's conservation laws after
	// the replay drains (see Audit) and fail with a descriptive error if
	// any is violated. The audit walks every SSD's mapping tables, so it
	// is meant for tests and checked reproduction runs, not benchmarks.
	// On a spec given to edm.Run it switches on the full invariant
	// harness, whose combined audit includes this one (edm then builds
	// the cluster with SelfCheck off, so the audit runs once).
	SelfCheck bool

	// Recorder receives typed telemetry events (request lifecycles,
	// queue samples, flash erases, migration/rebuild progress, HDF
	// waits). Nil — the default — disables event tracing; instrumented
	// hot paths then pay exactly one nil-check per event.
	Recorder telemetry.Recorder
	// Metrics, when non-nil, has the cluster's counters, gauges and
	// response histogram registered into it at construction, and is
	// sampled on the simulation engine every SampleInterval of virtual
	// time during Run.
	Metrics *telemetry.Registry
	// SampleInterval is the Metrics snapshot cadence (default 30
	// seconds of virtual time; ignored when Metrics is nil).
	SampleInterval sim.Time

	// Scratch, when non-nil, donates reusable hot-path buffers (RAID
	// access scratch, pooled completion records, histogram sample
	// storage) to this run. Recover the grown buffers with
	// Cluster.Release after Run to recycle them into the next run —
	// the experiment harness keeps a sync.Pool of these.
	Scratch *Scratch

	// TestHooks plants deliberate defects for the chaos harness's
	// self-test (internal/chaos must demonstrate it finds and shrinks a
	// real invariant violation). The zero value plants nothing;
	// production code never sets this.
	TestHooks TestHooks
}

// TestHooks are deliberately planted defects, armed only by tests.
type TestHooks struct {
	// MiscountLostOps makes degraded fan-out count a successful
	// reconstruction from exactly k−1 survivors as a lost operation —
	// violating the chaos invariant that lost operations require a
	// double failure in distinct groups.
	MiscountLostOps bool
}

func (c *Config) applyDefaults() {
	if c.Groups == 0 {
		c.Groups = 4
	}
	if c.ObjectsPerFile == 0 {
		c.ObjectsPerFile = 4
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 64 << 10
	}
	if c.Clients == 0 {
		c.Clients = c.OSDs / 2
		if c.Clients == 0 {
			c.Clients = 1
		}
	}
	if c.TargetMaxUtilization == 0 {
		c.TargetMaxUtilization = 0.7
	}
	if c.MDSLatency == 0 {
		c.MDSLatency = 150 * sim.Microsecond
	}
	if c.NetOverhead == 0 {
		c.NetOverhead = 100 * sim.Microsecond
	}
	if c.TemperatureInterval == 0 {
		c.TemperatureInterval = sim.Minute
	}
	if c.LoadEWMAAlpha == 0 {
		c.LoadEWMAAlpha = 0.3
	}
	if c.ResponseBucket == 0 {
		c.ResponseBucket = 3 * sim.Minute
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 30 * sim.Second
	}
}

// Validate reports the errors New would reject the config for: zero
// fields take their defaults first, then the cluster shape, placement
// layout and RAID geometry are checked. Every failure wraps
// ErrInvalidConfig.
func (c Config) Validate() error {
	c.applyDefaults()
	switch {
	case c.OSDs <= 0:
		return fmt.Errorf("cluster: need at least 1 OSD, got %d: %w", c.OSDs, ErrInvalidConfig)
	case c.TargetMaxUtilization <= 0 || c.TargetMaxUtilization >= 0.95:
		return fmt.Errorf("cluster: target max utilization %v out of (0,0.95): %w", c.TargetMaxUtilization, ErrInvalidConfig)
	case c.LoadEWMAAlpha <= 0 || c.LoadEWMAAlpha > 1:
		return fmt.Errorf("cluster: load EWMA alpha %v out of (0,1]: %w", c.LoadEWMAAlpha, ErrInvalidConfig)
	}
	if err := c.layout().Validate(); err != nil {
		return fmt.Errorf("cluster: %w: %w", err, ErrInvalidConfig)
	}
	if err := c.geometry().Validate(); err != nil {
		return fmt.Errorf("cluster: %w: %w", err, ErrInvalidConfig)
	}
	return nil
}

// layout is the placement layout of a defaulted config.
func (c Config) layout() placement.Layout {
	l := placement.Layout{N: c.OSDs, M: c.Groups, K: c.ObjectsPerFile, Sizes: c.GroupSizes}
	if c.GroupRotate {
		l.Mode = placement.ModeGroupRotate
	}
	return l
}

// geometry is the RAID geometry of a defaulted config.
func (c Config) geometry() raid.Geometry {
	return raid.Geometry{K: c.ObjectsPerFile, StripeUnit: c.StripeUnit}
}

// newLoadEWMA builds the per-OSD load factor estimator.
func (c Config) newLoadEWMA() *metrics.EWMA { return metrics.NewEWMA(c.LoadEWMAAlpha) }
