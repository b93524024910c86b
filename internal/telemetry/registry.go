package telemetry

import (
	"fmt"
	"io"

	"edm/internal/sim"
)

// Registry holds named counters and gauges and samples them
// into a snapshot series on a virtual-time cadence. Metrics contribute
// columns in registration order, so the CSV export is deterministic.
//
// A Registry belongs to one simulation run; like the engine, it is not
// safe for concurrent use.
type Registry struct {
	names   []string
	sample  []func(now sim.Time) float64
	byName  map[string]bool
	rows    []SnapshotRow
	sampler *sim.Ticker
}

// SnapshotRow is one sampling instant: the values of every registered
// column at virtual time T, in registration order.
type SnapshotRow struct {
	T      sim.Time
	Values []float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) addColumn(name string, fn func(now sim.Time) float64) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if r.byName[name] {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	if len(r.rows) > 0 {
		panic(fmt.Sprintf("telemetry: metric %q registered after sampling started", name))
	}
	r.byName[name] = true
	r.names = append(r.names, name)
	r.sample = append(r.sample, fn)
}

// Counter is a monotonically increasing metric.
type Counter struct{ v float64 }

// Add increases the counter by d (negative deltas panic: counters only
// go up, use a Gauge for levels).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("telemetry: counter decremented by %v", d))
	}
	c.v += d
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Counter registers and returns a new counter column.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.addColumn(name, func(sim.Time) float64 { return c.v })
	return c
}

// Gauge registers a column computed by fn at each sampling instant. The
// callback sees the sampling time, so level metrics can be derived from
// time horizons (e.g. an OSD's queue backlog = busy-until − now).
func (r *Registry) Gauge(name string, fn func(now sim.Time) float64) {
	if fn == nil {
		panic("telemetry: nil gauge function")
	}
	r.addColumn(name, fn)
}

// Names returns the column names in registration order.
func (r *Registry) Names() []string { return r.names }

// Rows returns the snapshot series in sampling order. The slice is
// owned by the registry; callers must not mutate it.
func (r *Registry) Rows() []SnapshotRow { return r.rows }

// Sample records one snapshot row at virtual time now.
func (r *Registry) Sample(now sim.Time) {
	r.rows = append(r.rows, SnapshotRow{T: now, Values: r.Snapshot(now)})
}

// Snapshot evaluates every column at now without appending to the
// snapshot series — the scrape path (edmd's /metricsz) samples on
// demand and must not grow state per scrape. Values are returned in
// Names() order.
func (r *Registry) Snapshot(now sim.Time) []float64 {
	vals := make([]float64, len(r.sample))
	for i, fn := range r.sample {
		vals[i] = fn(now)
	}
	return vals
}

// WriteText renders one "name value" line per column at now, each name
// prefixed — the text format edmd's /metricsz serves and edmctl prints
// in its dispatch summary. Columns appear in registration order, so two
// scrapes of the same registry differ only in values.
func (r *Registry) WriteText(w io.Writer, prefix string, now sim.Time) {
	vals := r.Snapshot(now)
	for i, name := range r.names {
		fmt.Fprintf(w, "%s%s %v\n", prefix, name, vals[i])
	}
}

// StartSampling schedules Sample on the engine every interval of
// virtual time — the periodic snapshot driver. Call StopSampling (or
// stop the returned ticker) when the run's last operation completes so
// the event queue can drain.
func (r *Registry) StartSampling(eng *sim.Engine, every sim.Time) *sim.Ticker {
	if r.sampler != nil {
		panic("telemetry: sampling already started")
	}
	r.sampler = eng.Every(every, func(now sim.Time) { r.Sample(now) })
	return r.sampler
}

// StopSampling cancels the periodic sampler (no-op if never started).
func (r *Registry) StopSampling() {
	if r.sampler != nil {
		r.sampler.Stop()
	}
}
