package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := Duration(1500 * time.Microsecond); got != 1500*Microsecond {
		t.Fatalf("Duration conversion: got %d", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds: got %v", got)
	}
	if got := (90 * Second).Minutes(); got != 1.5 {
		t.Fatalf("Minutes: got %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.5s" {
		t.Fatalf("String: got %q", s)
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	e := New()
	var fired []Time
	e.At(30, func(now Time) { fired = append(fired, now) })
	e.At(10, func(now Time) { fired = append(fired, now) })
	e.At(20, func(now Time) { fired = append(fired, now) })
	e.Run()
	want := []Time{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", e.Fired())
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d fired event %d; same-time events must be FIFO", i, got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(100, func(now Time) {
		e.After(50, func(now Time) { at = now })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before now must panic")
		}
	}()
	e.At(50, func(Time) {})
}

func TestNilEventPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event must panic")
		}
	}()
	e.At(1, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	if !h.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d after cancellation", e.Fired())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New()
	h := e.At(1, func(Time) {})
	e.Run()
	if h.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

// TestCancelAlreadyFiredAmidPendingEvents cancels a handle whose event
// has fired while later events are still queued: the cancel must report
// false and must not disturb the pending events or the fired counter.
func TestCancelAlreadyFiredAmidPendingEvents(t *testing.T) {
	e := New()
	var order []int
	h1 := e.At(1, func(Time) { order = append(order, 1) })
	e.At(2, func(now Time) {
		order = append(order, 2)
		// h1 fired at t=1; cancelling it mid-run is a no-op.
		if h1.Cancel() {
			t.Error("Cancel of an already-fired event reported true")
		}
		if h1.Cancel() {
			t.Error("repeated Cancel of a fired event reported true")
		}
	})
	e.At(3, func(Time) { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order %v, want [1 2 3]", order)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestStepAdvancesOneEvent(t *testing.T) {
	e := New()
	count := 0
	e.At(1, func(Time) { count++ })
	e.At(2, func(Time) { count++ })
	if !e.Step() || count != 1 || e.Now() != 1 {
		t.Fatalf("after first Step: count=%d now=%v", count, e.Now())
	}
	if !e.Step() || count != 2 || e.Now() != 2 {
		t.Fatalf("after second Step: count=%d now=%v", count, e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock at %v after RunUntil(25)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("second RunUntil fired %d total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %v after RunUntil(100)", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []Time
	var tk *Ticker
	tk = e.Every(10, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	if len(ticks) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(ticks), ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	e := New()
	tk := e.Every(10, func(Time) { t.Fatal("stopped ticker fired") })
	tk.Stop()
	e.Run()
}

func TestTickerNonPositivePeriodPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive ticker period must panic")
		}
	}()
	e.Every(0, func(Time) {})
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.At(1, func(Time) {
		defer func() {
			if recover() == nil {
				t.Fatal("re-entrant Run must panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestPendingCountsQueuedEvents(t *testing.T) {
	e := New()
	e.At(1, func(Time) {})
	e.At(2, func(Time) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", e.Pending())
	}
}

// TestRunUntilAllCancelled drains a queue whose every event was
// cancelled: Cancel removes events from the heap eagerly, so RunUntil
// must see an empty queue, fire nothing, and still advance the clock to
// the deadline.
func TestRunUntilAllCancelled(t *testing.T) {
	e := New()
	handles := make([]Handle, 5)
	for i := range handles {
		handles[i] = e.At(Time(10+10*i), func(Time) { t.Error("cancelled event fired") })
	}
	for _, h := range handles {
		if !h.Cancel() {
			t.Fatal("Cancel reported false for a pending event")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancelling everything, want 0", e.Pending())
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock at %v after RunUntil(100) over a dead queue", e.Now())
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
	if e.Step() {
		t.Fatal("Step on an all-cancelled queue reported true")
	}
}

// TestRunUntilSkipsCancelledHead cancels the earliest events so the
// queue head is dead at the moment RunUntil peeks: the surviving later
// event must still fire at its own time, not the cancelled one's.
func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := New()
	h1 := e.At(10, func(Time) { t.Error("cancelled head fired") })
	h2 := e.At(20, func(Time) { t.Error("cancelled head fired") })
	var firedAt Time
	e.At(30, func(now Time) { firedAt = now })
	h1.Cancel()
	h2.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (cancelled events must not linger)", e.Pending())
	}
	e.RunUntil(25)
	if e.Now() != 25 || e.Fired() != 0 {
		t.Fatalf("RunUntil(25): now=%v fired=%d, want 25/0", e.Now(), e.Fired())
	}
	e.RunUntil(35)
	if firedAt != 30 {
		t.Fatalf("surviving event fired at %v, want 30", firedAt)
	}
}

// TestTickerStopInsideOwnCallback stops the ticker from within its own
// callback on the first fire: it must not reschedule, and the stop must
// be idempotent afterwards.
func TestTickerStopInsideOwnCallback(t *testing.T) {
	e := New()
	fires := 0
	var tk *Ticker
	tk = e.Every(10, func(Time) {
		fires++
		tk.Stop()
		tk.Stop() // second stop inside the callback is a no-op
	})
	e.At(100, func(Time) {}) // keep the run going past would-be ticks
	e.Run()
	if fires != 1 {
		t.Fatalf("ticker fired %d times after stopping itself, want 1", fires)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0 (stopped ticker left an event)", e.Pending())
	}
	tk.Stop() // and once more after the run
	if e.Now() != 100 {
		t.Fatalf("clock at %v, want 100", e.Now())
	}
}

// TestPendingExcludesCancelled pins the Pending contract: cancelled
// events leave the queue immediately rather than lingering as dead
// entries discovered at fire time.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	var handles []Handle
	for i := 0; i < 10; i++ {
		handles = append(handles, e.At(Time(i+1), func(Time) {}))
	}
	for i, h := range handles {
		h.Cancel()
		if got, want := e.Pending(), len(handles)-i-1; got != want {
			t.Fatalf("Pending() = %d after %d cancels, want %d", got, i+1, want)
		}
	}
}

// Property: for any set of timestamps, events fire in sorted order and
// the engine clock ends at the max.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		e := New()
		var fired []Time
		for _, s := range stamps {
			e.At(Time(s), func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		sorted := make([]Time, len(stamps))
		for i, s := range stamps {
			sorted[i] = Time(s)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return e.Now() == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset removes exactly those events.
func TestPropertyCancellation(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := 50
		fired := make([]bool, n)
		handles := make([]Handle, n)
		for i := 0; i < n; i++ {
			i := i
			handles[i] = e.At(Time(rnd.Intn(100)), func(Time) { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rnd.Intn(2) == 0 {
				handles[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				t.Fatalf("trial %d event %d: fired=%v cancelled=%v", trial, i, fired[i], cancelled[i])
			}
		}
	}
}

// Determinism: two engines fed the same schedule observe identical
// interleavings even with nested scheduling.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			e.At(Time(i%5), func(now Time) {
				order = append(order, i)
				if i%3 == 0 {
					e.After(Time(i), func(Time) { order = append(order, 1000+i) })
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: under a random mix of scheduling, mid-queue cancellation
// and stepping, events fire in exactly (at, seq) order — the order a
// sorted reference list gives — and AppendQueue always lists the
// reference's pending set. Mid-queue cancels exercise both directions
// removeAt can move the heap's last entry.
func TestPropertyHeapMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	type ref struct {
		at  Time
		seq int
	}
	for trial := 0; trial < 40; trial++ {
		e := New()
		var pending []ref // reference queue, kept sorted by (at, seq)
		handles := map[int]Handle{}
		var fired []int
		seq := 0
		for op := 0; op < 600; op++ {
			switch r := rnd.Intn(10); {
			case r < 5:
				s := seq
				seq++
				at := e.Now() + Time(rnd.Intn(20))
				handles[s] = e.At(at, func(Time) { fired = append(fired, s) })
				i := sort.Search(len(pending), func(i int) bool {
					p := pending[i]
					return p.at > at || (p.at == at && p.seq > s)
				})
				pending = append(pending[:i], append([]ref{{at, s}}, pending[i:]...)...)
			case r < 7 && len(pending) > 0:
				i := rnd.Intn(len(pending))
				if !handles[pending[i].seq].Cancel() {
					t.Fatalf("trial %d: cancel of pending event %d failed", trial, pending[i].seq)
				}
				pending = append(pending[:i], pending[i+1:]...)
			case len(pending) > 0:
				want := pending[0]
				pending = pending[1:]
				e.Step()
				if got := fired[len(fired)-1]; got != want.seq || e.Now() != want.at {
					t.Fatalf("trial %d: fired %d at %v, want %d at %v", trial, got, e.Now(), want.seq, want.at)
				}
			}
			q := e.AppendQueue(nil)
			if len(q) != len(pending) {
				t.Fatalf("trial %d: queue holds %d, reference %d", trial, len(q), len(pending))
			}
			for i, x := range q {
				if x.At != pending[i].at {
					t.Fatalf("trial %d: queue[%d] at %v, reference %v", trial, i, x.At, pending[i].at)
				}
			}
		}
	}
}
