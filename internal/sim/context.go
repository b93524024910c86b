package sim

import (
	"context"
	"fmt"
)

// CancelCheckInterval is the number of events RunContext fires between
// context-cancellation polls. The poll is a single non-blocking select
// on a prefetched Done channel — no allocation, no syscall — so the
// interval trades only poll frequency against branch overhead. A
// paper-shaped replay costs several hundred ns of wall time per event,
// model callbacks included (sim.ns_per_event in the perfbench layer
// table), so a check lands every few milliseconds, which bounds how
// stale a cancellation can go unobserved.
const CancelCheckInterval = 4096

// RunContext executes events until the queue drains or ctx is
// cancelled, polling for cancellation every CancelCheckInterval events.
// It returns nil when the queue drained and ctx.Err() when the run was
// interrupted; in the latter case the clock stops at the last fired
// event and the remaining queue is left intact (callers that resume
// must do so with the same engine).
//
// A ctx that can never be cancelled (context.Background, context.TODO)
// takes the same drain loop as Run when no checkpoint hook is armed, so
// the zero-alloc steady-state benchmarks hold for both entry points.
func (e *Engine) RunContext(ctx context.Context) error {
	e.guard()
	defer func() { e.running = false }()
	return e.runLoop(ctx, 0)
}

// RunContextFired executes events until exactly target events have been
// fired since the engine's creation (Fired() == target), the queue
// drains, or ctx is cancelled. Draining before reaching the target is
// an error — the caller asked to replay to a position that does not
// exist, which on checkpoint restore means the snapshot and the rebuilt
// model disagree. Reaching the target leaves the remaining queue intact
// so the run can be continued with RunContext on the same engine.
func (e *Engine) RunContextFired(ctx context.Context, target uint64) error {
	e.guard()
	defer func() { e.running = false }()
	if e.fired > target {
		return fmt.Errorf("sim: already fired %d events, past target %d", e.fired, target)
	}
	return e.runLoop(ctx, target)
}

// runLoop is the shared body of RunContext and RunContextFired:
// target == 0 drains the queue, target > 0 stops at that fired count.
// The checkpoint hook, when armed, runs between events on its cadence.
func (e *Engine) runLoop(ctx context.Context, target uint64) error {
	done := ctx.Done()
	hooked := e.ckEvery != 0
	if done == nil && !hooked && target == 0 {
		for e.Step() {
		}
		return nil
	}
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		for i := 0; i < CancelCheckInterval; i++ {
			if target != 0 && e.fired >= target {
				return nil
			}
			if !e.Step() {
				if target != 0 && e.fired < target {
					return fmt.Errorf("sim: queue drained after %d events, short of target %d", e.fired, target)
				}
				return nil
			}
			if hooked && e.fired%e.ckEvery == 0 {
				if err := e.ckFn(e.now); err != nil {
					return fmt.Errorf("sim: checkpoint hook at %v (event %d): %w", e.now, e.fired, err)
				}
			}
		}
	}
}
