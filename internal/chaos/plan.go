// Package chaos is the simulator's fault-injection and stress-testing
// harness. It has three layers:
//
//   - A fault Plan: a serializable schedule of timed faults — device
//     failure and repair, transient per-device slowdowns, faults armed
//     on a migration round, and dispatch-layer HTTP faults — injected
//     into a run through an Injector that decorates the telemetry
//     stream (so it sees migration rounds as they start) and the
//     cluster's failure hooks.
//
//   - A Scenario generator and runner: a Scenario is a small, fully
//     seeded (config, workload, plan) triple; RunScenario replays it
//     under the full invariant checker plus the chaos-specific
//     fault-aware invariants and returns a deterministic Verdict —
//     same scenario, same verdict, byte for byte.
//
//   - A stress loop with shrinking: Stress generates and runs many
//     scenarios; each violation is shrunk (fewer faults, shorter
//     trace, smaller cluster) to a minimal reproduction and written
//     out as a replayable JSON artifact.
//
// Device-level faults run on the virtual clock inside the simulation.
// The dispatch-layer fault kinds target the real-HTTP coordinator
// stack: HTTPScript delivers them as an http.RoundTripper under a
// dispatch client, in wall-clock tests. They are carried in the same
// Plan type so one artifact format covers both.
package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"edm/internal/sim"
)

// FaultKind names one kind of injected fault. The string values are
// the wire format (Plan JSON artifacts) and are stable.
type FaultKind string

const (
	// FaultFail marks a device failed at virtual time At.
	FaultFail FaultKind = "fail"
	// FaultRepair returns a failed device to service at At.
	FaultRepair FaultKind = "repair"
	// FaultSlow degrades a device's service latency by Factor over
	// [At, At+Duration).
	FaultSlow FaultKind = "slow"
	// FaultMigrationFail arms a device failure on a migration round:
	// when the Nth MigrationPlan event fires, the device fails After
	// after the round starts — killing an OSD mid-round.
	FaultMigrationFail FaultKind = "migration-fail"

	// FaultDropResponse drops the Nth HTTP exchange matching Path, as
	// if the worker's response was lost (dispatch layer, wall clock).
	FaultDropResponse FaultKind = "drop-response"
	// FaultDelayResponse stalls the Nth matching HTTP exchange by
	// WallDelay before it is issued.
	FaultDelayResponse FaultKind = "delay-response"
	// FaultWorkerDeath drops every matching HTTP exchange from the
	// Nth onward — the worker died and never answers again.
	FaultWorkerDeath FaultKind = "worker-death"
)

// deviceKind reports whether the kind runs on the simulation's
// virtual clock (as opposed to the dispatch layer's wall clock).
func (k FaultKind) deviceKind() bool {
	switch k {
	case FaultFail, FaultRepair, FaultSlow, FaultMigrationFail:
		return true
	}
	return false
}

// Fault is one scheduled fault. Fields beyond Kind are meaningful per
// kind; unused fields stay zero and are omitted from JSON.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// OSD is the target device (fail, repair, slow, migration-fail).
	OSD int `json:"osd,omitempty"`
	// At is the virtual injection time (fail, repair, slow).
	At sim.Time `json:"at,omitempty"`
	// Duration is the slowdown window length (slow).
	Duration sim.Time `json:"duration,omitempty"`
	// Factor is the latency multiplier, >= 1 (slow).
	Factor float64 `json:"factor,omitempty"`
	// After is the virtual delay between the migration round starting
	// and the device failing (migration-fail).
	After sim.Time `json:"after,omitempty"`
	// Path is a substring filter on the request's "host/path", e.g.
	// "/v1/runs" for an endpoint or "127.0.0.1:8081/" for one worker
	// (dispatch kinds); empty matches every exchange.
	Path string `json:"path,omitempty"`
	// Nth selects which matching occurrence fires the fault, counting
	// from 0 (migration-fail: which round; dispatch kinds: which
	// exchange).
	Nth int `json:"nth,omitempty"`
	// WallDelay is the injected stall (delay-response).
	WallDelay time.Duration `json:"wall_delay,omitempty"`
}

// String renders a fault compactly for logs.
func (f Fault) String() string {
	switch f.Kind {
	case FaultFail, FaultRepair:
		return fmt.Sprintf("%s(osd=%d at=%v)", f.Kind, f.OSD, f.At)
	case FaultSlow:
		return fmt.Sprintf("slow(osd=%d at=%v d=%v x%g)", f.OSD, f.At, f.Duration, f.Factor)
	case FaultMigrationFail:
		return fmt.Sprintf("migration-fail(osd=%d round=%d after=%v)", f.OSD, f.Nth, f.After)
	default:
		return fmt.Sprintf("%s(path=%q nth=%d delay=%v)", f.Kind, f.Path, f.Nth, f.WallDelay)
	}
}

// Plan is a serializable fault schedule.
type Plan struct {
	Faults []Fault `json:"faults"`
}

// DeviceFaults returns the virtual-clock faults of the plan, in
// schedule order.
func (p Plan) DeviceFaults() []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind.deviceKind() {
			out = append(out, f)
		}
	}
	return out
}

// DispatchFaults returns the dispatch-layer (wall-clock HTTP) faults.
func (p Plan) DispatchFaults() []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if !f.Kind.deviceKind() {
			out = append(out, f)
		}
	}
	return out
}

// Validate checks every fault for internal consistency. osds bounds
// the device indices; pass 0 to skip the range check (a plan validated
// apart from a scenario).
func (p Plan) Validate(osds int) error {
	for i, f := range p.Faults {
		if err := f.validate(osds); err != nil {
			return fmt.Errorf("chaos: fault %d (%s): %w", i, f.Kind, err)
		}
	}
	return nil
}

func (f Fault) validate(osds int) error {
	switch f.Kind {
	case FaultFail, FaultRepair:
		if f.At < 0 {
			return fmt.Errorf("negative time %v", f.At)
		}
	case FaultSlow:
		if f.At < 0 {
			return fmt.Errorf("negative time %v", f.At)
		}
		if f.Factor < 1 {
			return fmt.Errorf("factor %g < 1", f.Factor)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("non-positive duration %v", f.Duration)
		}
	case FaultMigrationFail:
		if f.After < 0 {
			return fmt.Errorf("negative after %v", f.After)
		}
		if f.Nth < 0 {
			return fmt.Errorf("negative round %d", f.Nth)
		}
	case FaultDropResponse, FaultDelayResponse, FaultWorkerDeath:
		if f.Nth < 0 {
			return fmt.Errorf("negative nth %d", f.Nth)
		}
		if f.Kind == FaultDelayResponse && f.WallDelay <= 0 {
			return fmt.Errorf("non-positive delay %v", f.WallDelay)
		}
		return nil
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if osds > 0 && (f.OSD < 0 || f.OSD >= osds) {
		return fmt.Errorf("osd %d out of range [0,%d)", f.OSD, osds)
	}
	if osds == 0 && f.OSD < 0 {
		return fmt.Errorf("negative osd %d", f.OSD)
	}
	return nil
}

// MarshalJSON keeps the wire form stable: a plan is always an object
// with a (possibly empty) faults array, never null.
func (p Plan) MarshalJSON() ([]byte, error) {
	type alias Plan
	a := alias(p)
	if a.Faults == nil {
		a.Faults = []Fault{}
	}
	return json.Marshal(a)
}
