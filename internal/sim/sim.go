// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in schedule order (FIFO),
// which makes every simulation a pure function of its inputs: running the
// same model twice yields identical event orderings and therefore
// identical results. All EDM experiments are built on this property.
//
// The queue is a 4-ary min-heap whose entries carry their (at, seq) sort
// key inline next to a slot index, so comparisons never leave the heap
// array; sifting moves a hole and writes the moving entry once. Event
// callbacks live in a value slice of slots with a free list, so
// steady-state scheduling (At/After/Step) performs no heap allocations:
// fired and cancelled events return their slots for reuse. Handles are
// generation-checked slot indices, and Cancel removes its event from the
// queue eagerly, so cancelled events never linger (Pending is exact and
// a Stop-heavy run cannot bloat the queue).
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds from the start of
// the simulation. It is deliberately distinct from time.Time: simulated
// clusters have no relation to the wall clock.
type Time int64

// Common virtual durations, mirroring time package constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Duration converts a time.Duration into a virtual duration.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Minutes reports t as floating-point minutes.
func (t Time) Minutes() float64 { return float64(t) / float64(Minute) }

// String formats the virtual time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled to run at a virtual instant.
type Event func(now Time)

// Action is a pre-bound event: a value whose Fire method runs at the
// scheduled instant. Scheduling an Action instead of an Event avoids the
// closure allocation a captured-variable callback costs at hot call
// sites — storing an interface built from an existing pointer allocates
// nothing.
type Action interface {
	Fire(now Time)
}

// slot holds one scheduled event's callback. Slots live in a value
// slice and are recycled through a free list; pos tracks the slot's
// position in the heap (freeSlot when idle) and gen invalidates stale
// handles.
type slot struct {
	fn  Event // exactly one of fn/act is set
	act Action
	gen uint32
	pos int32
}

// entry is one heap element: the event's sort key and its slot.
type entry struct {
	at  Time
	seq uint64 // tiebreaker: FIFO among same-time events
	id  int32
}

// before orders heap entries by (at, seq): earliest first, FIFO among
// same-time events — the determinism tiebreak.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// freeSlot marks a slot that is not in the heap (fired, cancelled, or
// never used).
const freeSlot = int32(-1)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to no event.
type Handle struct {
	e   *Engine
	id  int32
	gen uint32
}

// Cancel removes the event from the queue immediately. Cancelling an
// already-fired or already-cancelled event is a no-op. It reports
// whether the event was still pending.
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	s := &h.e.slots[h.id]
	if s.pos == freeSlot || s.gen != h.gen {
		return false
	}
	h.e.removeAt(s.pos)
	return true
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; parallelism in the EDM harness happens across
// independent Engine instances, never within one.
type Engine struct {
	now     Time
	slots   []slot
	heap    []entry // 4-ary min-heap on (at, seq)
	free    []int32 // recycled slot ids (LIFO)
	seq     uint64
	fired   uint64
	running bool

	// Checkpoint hook (SetCheckpoint): fn runs between events after
	// every ckEvery fired events. Zero/nil disables it, and the
	// no-hook run loops stay branch-free.
	ckEvery uint64
	ckFn    func(now Time) error
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue. Cancelled
// events are removed eagerly and never counted.
func (e *Engine) Pending() int { return len(e.heap) }

// Seq returns the next schedule sequence number — together with Now and
// Fired it pins the engine's replay position for state capture.
func (e *Engine) Seq() uint64 { return e.seq }

// QueueEntry is the exportable shape of one pending event: its firing
// instant and FIFO sequence number. The callback itself is deliberately
// absent — closures and pooled Actions are not serializable, which is
// why checkpoint restore replays rather than deserializes (see
// internal/snapshot).
type QueueEntry struct {
	At  Time
	Seq uint64
}

// AppendQueue appends every pending event's (at, seq) pair to dst in
// deterministic (at, seq) order and returns the extended slice. It is
// read-only: the heap is not disturbed, so capturing the queue cannot
// perturb the run being captured.
func (e *Engine) AppendQueue(dst []QueueEntry) []QueueEntry {
	base := len(dst)
	for _, x := range e.heap {
		dst = append(dst, QueueEntry{At: x.at, Seq: x.seq})
	}
	tail := dst[base:]
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].At != tail[j].At {
			return tail[i].At < tail[j].At
		}
		return tail[i].Seq < tail[j].Seq
	})
	return dst
}

// SetCheckpoint installs fn to run between events, after every `every`
// fired events (i.e. whenever fired%every == 0). The hook is honoured
// by RunContext and RunContextFired; a hook error stops the run and is
// returned wrapped. every == 0 or fn == nil removes the hook. The hook
// must not mutate simulation state — it exists for state capture.
func (e *Engine) SetCheckpoint(every uint64, fn func(now Time) error) {
	if every == 0 || fn == nil {
		e.ckEvery, e.ckFn = 0, nil
		return
	}
	e.ckEvery, e.ckFn = every, fn
}

// alloc reserves a slot for an event at the given instant and links it
// into the heap.
func (e *Engine) alloc(at Time) int32 {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{pos: freeSlot})
		id = int32(len(e.slots) - 1)
	}
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, entry{at: at, seq: e.seq, id: id})
	e.seq++
	return id
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (before Now) panics: it would silently corrupt causality.
func (e *Engine) At(at Time, fn Event) Handle {
	if fn == nil {
		panic("sim: nil event")
	}
	id := e.alloc(at)
	s := &e.slots[id]
	s.fn = fn
	return Handle{e: e, id: id, gen: s.gen}
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// AtAction schedules a.Fire to run at the absolute virtual time at,
// without the closure allocation of At.
func (e *Engine) AtAction(at Time, a Action) Handle {
	if a == nil {
		panic("sim: nil action")
	}
	id := e.alloc(at)
	s := &e.slots[id]
	s.act = a
	return Handle{e: e, id: id, gen: s.gen}
}

// AfterAction schedules a.Fire to run delay after the current time.
func (e *Engine) AfterAction(delay Time, a Action) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtAction(e.now+delay, a)
}

// Every schedules fn at now+period, then repeatedly every period until
// the returned handle's Cancel is called or the run ends. fn observes the
// firing time.
func (e *Engine) Every(period Time, fn Event) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.AfterAction(period, t)
	return t
}

// Ticker repeatedly schedules an event with a fixed period. The Ticker
// itself is the scheduled Action, so ticking allocates nothing after the
// initial Every call.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      Event
	handle  Handle
	stopped bool
}

// Fire implements Action: run the callback, then re-arm unless Stop was
// called (possibly from inside the callback itself).
func (t *Ticker) Fire(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.handle = t.engine.AfterAction(t.period, t)
	}
}

// Stop cancels future firings. Safe to call multiple times, including
// from inside the ticker's own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	at := e.heap[0].at
	s := &e.slots[e.heap[0].id]
	fn := s.fn
	act := s.act
	e.removeAt(0)
	e.now = at
	e.fired++
	if act != nil {
		act.Fire(at)
	} else {
		fn(at)
	}
	return true
}

// removeAt unlinks the event at heap position pos and recycles its slot.
// The slot's generation advances so stale handles miss.
func (e *Engine) removeAt(pos int32) {
	id := e.heap[pos].id
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i := int(pos); i < last {
		if i > 0 && moved.before(e.heap[(i-1)/4]) {
			e.siftUp(i, moved)
		} else {
			e.siftDown(i, moved)
		}
	}
	s := &e.slots[id]
	s.pos = freeSlot
	s.gen++
	s.fn = nil
	s.act = nil
	e.free = append(e.free, id)
}

// siftUp places x in the hole at heap position i, moving the hole
// toward the root past every parent that x precedes.
func (e *Engine) siftUp(i int, x entry) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		e.slots[h[i].id].pos = int32(i)
		i = parent
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
}

// siftDown places x in the hole at heap position i, moving the hole
// toward the leaves past every smallest child that precedes x.
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(x) {
			break
		}
		h[i] = h[min]
		e.slots[h[i].id].pos = int32(i)
		i = min
	}
	h[i] = x
	e.slots[x.id].pos = int32(i)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	e.guard()
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if it is beyond the last event fired).
func (e *Engine) RunUntil(deadline Time) {
	e.guard()
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) guard() {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
}
