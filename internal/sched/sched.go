// Package sched is edmd's admission and scheduling brain: priority
// classes, weighted fair-share across tenants, deadline-aware
// admission, batch load shedding, and preemption signalling.
//
// The scheduler is deliberately split from the serving layer. It owns
// every *decision* — which ticket runs next, whether a submission is
// admitted, which running job to preempt when an interactive job
// arrives and every worker is busy — while the server owns every
// *action* (executing jobs, checkpointing a preemption victim,
// cancelling its context, re-admitting it for resume). That split
// keeps the policy unit-testable without HTTP or simulations: tickets
// carry an opaque payload and the scheduler never looks inside.
//
// Scheduling model:
//
//   - Three priority classes — batch < normal < interactive. Next
//     always serves the highest non-empty class.
//   - Within a class, tenants compete by weighted fair share: the
//     tenant with the least weighted consumed run-time goes first, so
//     one tenant's burst cannot starve another's steady trickle. New
//     tenants are floored to the minimum active usage rather than
//     zero, so joining late is not a superpower.
//   - Admission is deadline-aware: a submission carrying a max wait is
//     rejected up front (with the live estimate as a Retry-After hint)
//     when the estimated queue wait exceeds it — failing in one RTT
//     beats timing out after queuing.
//   - Batch work is shed before the queue is actually full (beyond
//     ShedFraction of capacity), keeping headroom for interactive and
//     normal traffic under pressure.
//   - When every worker is busy and an interactive job is queued, the
//     scheduler signals preemption of the youngest running job of the
//     lowest class (least work lost, most latency gained). The
//     executor checkpoints and re-admits it via Requeue, which puts it
//     at the *head* of its queue so it resumes as soon as a worker
//     frees.
//
// Wait estimates feed Retry-After hints: the scheduler keeps an EWMA
// of observed run times and per-class queue waits, so backpressure
// responses tell clients how long the queue actually is rather than
// echoing a static config value.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"edm/internal/metrics"
	"edm/internal/sim"
	"edm/internal/telemetry"
)

// Class is a job's priority class. Higher values run first.
type Class uint8

// The three priority classes, lowest first.
const (
	// Batch is throughput work (fleet sweeps); first to wait, first to
	// be shed, and preemptible by interactive arrivals.
	Batch Class = iota
	// Normal is the default class for unlabelled submissions.
	Normal
	// Interactive is latency-sensitive work: served first, and able to
	// preempt running lower-class jobs when no worker is free.
	Interactive

	numClasses
)

// Classes lists the classes lowest-priority first (iteration helper
// for metrics and tests).
func Classes() []Class { return []Class{Batch, Normal, Interactive} }

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Normal:
		return "normal"
	case Interactive:
		return "interactive"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass maps a wire name to a Class. The empty string is Normal,
// so requests that never heard of priorities keep their old behavior.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "normal":
		return Normal, nil
	case "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	}
	return Normal, fmt.Errorf("sched: unknown priority %q (valid: batch, normal, interactive)", s)
}

// Admission sentinels; test with errors.Is. Rejections that carry a
// live wait estimate arrive wrapped in *RejectError.
var (
	// ErrQueueFull: the queue is at capacity.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrShed: a batch submission was refused to keep headroom for
	// higher classes (queue beyond ShedFraction of capacity).
	ErrShed = errors.New("sched: batch work shed under load")
	// ErrMaxWait: the estimated queue wait exceeds the submission's max
	// wait, so the job was rejected at admission instead of queued.
	ErrMaxWait = errors.New("sched: estimated wait exceeds max wait")
	// ErrClosed: Close was called; no further admissions.
	ErrClosed = errors.New("sched: scheduler closed")
)

// RejectError is an admission rejection carrying the scheduler's live
// estimate of when retrying could succeed. Unwrap exposes the
// sentinel, so errors.Is(err, ErrQueueFull) works on the wrapped form.
type RejectError struct {
	Err error
	// RetryAfter is the live estimate: for a full or shedding queue,
	// the expected time until a slot frees; for a max-wait rejection,
	// the estimated queue wait itself. Zero when the scheduler has no
	// runtime observations yet.
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v (retry in ~%s)", e.Err, e.RetryAfter.Round(time.Millisecond))
	}
	return e.Err.Error()
}

func (e *RejectError) Unwrap() error { return e.Err }

// Config describes a Scheduler.
type Config struct {
	// Workers is the executor slot count (used for wait estimates and
	// the all-busy preemption condition). Required, >= 1.
	Workers int
	// QueueDepth caps queued (admitted, not running) tickets. Required,
	// >= 1. Requeued preemption victims are exempt — they were already
	// admitted once and must not be lost to a momentarily full queue.
	QueueDepth int
	// ShedFraction is the occupancy (fraction of QueueDepth) beyond
	// which batch submissions are shed (default 0.75; >= 1 disables).
	ShedFraction float64
	// TenantWeights biases the fair share: a tenant with weight 2
	// accrues usage at half rate, so it receives twice the service of a
	// weight-1 tenant under contention. Unlisted tenants weigh 1.
	TenantWeights map[string]float64
}

func (c *Config) applyDefaults() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1
	}
	if c.ShedFraction <= 0 {
		c.ShedFraction = 0.75
	}
}

// Ticket is one admitted unit of work. The payload is opaque to the
// scheduler; the executor keeps whatever it needs there.
type Ticket struct {
	id      string
	class   Class
	tenant  string
	payload any

	// All mutable fields are guarded by the owning scheduler's mu.
	enqueued   time.Time     // most recent admission (Submit or Requeue)
	started    time.Time     // set by Next when the ticket begins running
	preemptCh  chan struct{} // closed to signal preemption; re-armed per run
	preempting bool          // signalled, not yet requeued/finished
	resumes    int
	s          *Scheduler
}

// ID returns the ticket's identity (the executor's job id).
func (t *Ticket) ID() string { return t.id }

// Class returns the ticket's priority class.
func (t *Ticket) Class() Class { return t.class }

// Tenant returns the ticket's tenant label ("" for the default tenant).
func (t *Ticket) Tenant() string { return t.tenant }

// Payload returns the opaque payload passed to Submit.
func (t *Ticket) Payload() any { return t.payload }

// Resumes reports how many times the ticket was preempted and
// re-admitted.
func (t *Ticket) Resumes() int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.resumes
}

// Preempted returns a channel that is closed when the scheduler asks
// the executor to preempt this running ticket. The channel is re-armed
// on every Next, so read it once per execution attempt, right after
// Next returns the ticket.
func (t *Ticket) Preempted() <-chan struct{} {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.preemptCh
}

// tenantQueue is one tenant's FIFO within a class. Requeued preemption
// victims are pushed at the front so they resume first.
type tenantQueue struct {
	items []*Ticket
}

// Scheduler owns the queues, the running set, and the estimates.
// Create with New; all methods are safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	queues        [numClasses]map[string]*tenantQueue
	queuedByClass [numClasses]int
	queuedTotal   int
	running       map[*Ticket]struct{}

	// usage is each tenant's weighted consumed run-seconds — the fair-
	// share currency. It only ever grows (floored for new arrivals), so
	// shares are comparable across the scheduler's whole life.
	usage map[string]float64

	// avgRunS is the EWMA of observed run durations in seconds;
	// waitEWMA the per-class EWMA of queue waits (both α = estAlpha).
	avgRunS  *metrics.EWMA
	waitEWMA [numClasses]*metrics.EWMA

	preemptions uint64
	shedCount   uint64
	maxWaitRej  uint64
	requeues    uint64
	dequeued    [numClasses]uint64
}

// New builds a scheduler.
func New(cfg Config) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:     cfg,
		running: make(map[*Ticket]struct{}),
		usage:   make(map[string]float64),
		avgRunS: metrics.NewEWMA(estAlpha),
	}
	s.cond = sync.NewCond(&s.mu)
	for c := range s.queues {
		s.queues[c] = make(map[string]*tenantQueue)
		s.waitEWMA[c] = metrics.NewEWMA(estAlpha)
	}
	return s
}

func (s *Scheduler) weight(tenant string) float64 {
	if w, ok := s.cfg.TenantWeights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Submit admits one unit of work. Rejections are *RejectError wrapping
// ErrQueueFull, ErrShed or ErrMaxWait (carrying the live Retry-After
// estimate), or plain ErrClosed after Close. maxWait <= 0 means the
// client accepts any wait.
func (s *Scheduler) Submit(id string, class Class, tenant string, maxWait time.Duration, payload any) (*Ticket, error) {
	if class >= numClasses {
		return nil, fmt.Errorf("sched: invalid class %d", class)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.queuedTotal >= s.cfg.QueueDepth {
		return nil, &RejectError{Err: ErrQueueFull, RetryAfter: s.slotFreeLocked()}
	}
	if class == Batch && float64(s.queuedTotal) >= s.cfg.ShedFraction*float64(s.cfg.QueueDepth) {
		s.shedCount++
		return nil, &RejectError{Err: ErrShed, RetryAfter: s.slotFreeLocked()}
	}
	if maxWait > 0 {
		if est := s.estimateLocked(class); est > maxWait {
			s.maxWaitRej++
			return nil, &RejectError{Err: ErrMaxWait, RetryAfter: est}
		}
	}
	tk := &Ticket{
		id:        id,
		class:     class,
		tenant:    tenant,
		payload:   payload,
		enqueued:  time.Now(),
		preemptCh: make(chan struct{}),
		s:         s,
	}
	s.pushLocked(tk, false)
	if class == Interactive {
		s.maybePreemptLocked()
	}
	s.cond.Broadcast()
	return tk, nil
}

// Restore re-admits previously-accepted work (crash recovery). It
// respects QueueDepth but skips shedding and deadline checks — the
// work was already admitted once and a restart must not drop it.
func (s *Scheduler) Restore(id string, class Class, tenant string, payload any) (*Ticket, error) {
	if class >= numClasses {
		class = Normal
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.queuedTotal >= s.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	tk := &Ticket{
		id:        id,
		class:     class,
		tenant:    tenant,
		payload:   payload,
		enqueued:  time.Now(),
		preemptCh: make(chan struct{}),
		s:         s,
	}
	s.pushLocked(tk, false)
	s.cond.Broadcast()
	return tk, nil
}

// pushLocked enqueues tk in its class/tenant queue; front puts it at
// the head (requeued preemption victims resume before anything else in
// their class).
func (s *Scheduler) pushLocked(tk *Ticket, front bool) {
	qs := s.queues[tk.class]
	tq := qs[tk.tenant]
	if tq == nil {
		tq = &tenantQueue{}
		qs[tk.tenant] = tq
	}
	// Floor a never-seen tenant's usage to the minimum among tenants
	// that currently have queued work, so it competes from "now"
	// instead of banking credit for the history it was absent for.
	if _, seen := s.usage[tk.tenant]; !seen {
		floor, _ := s.minActiveUsageLocked()
		s.usage[tk.tenant] = floor
	}
	if front {
		tq.items = append([]*Ticket{tk}, tq.items...)
	} else {
		tq.items = append(tq.items, tk)
	}
	s.queuedByClass[tk.class]++
	s.queuedTotal++
}

// minActiveUsageLocked is the smallest weighted usage among tenants
// with queued work, in any class.
func (s *Scheduler) minActiveUsageLocked() (float64, bool) {
	min, ok := 0.0, false
	for c := range s.queues {
		for tenant, tq := range s.queues[c] {
			if len(tq.items) == 0 {
				continue
			}
			if u := s.usage[tenant]; !ok || u < min {
				min, ok = u, true
			}
		}
	}
	return min, ok
}

// maybePreemptLocked signals preemption of one running job when an
// interactive ticket is waiting and no worker is free: the youngest
// (latest-started) running job of the lowest class below Interactive.
// One victim per waiting interactive ticket, never more.
func (s *Scheduler) maybePreemptLocked() {
	if s.closed || len(s.running) < s.cfg.Workers {
		return // a worker is (or is about to be) free
	}
	preempting := 0
	for tk := range s.running {
		if tk.preempting {
			preempting++
		}
	}
	if s.queuedByClass[Interactive] <= preempting {
		return
	}
	var victim *Ticket
	for tk := range s.running {
		if tk.class >= Interactive || tk.preempting {
			continue
		}
		if victim == nil ||
			tk.class < victim.class ||
			(tk.class == victim.class && tk.started.After(victim.started)) {
			victim = tk
		}
	}
	if victim == nil {
		return
	}
	victim.preempting = true
	s.preemptions++
	close(victim.preemptCh)
}

// Next blocks until a ticket is runnable and returns it, marking it
// running. It returns nil once the scheduler is closed and drained —
// the worker's signal to exit. Order: highest class first; within a
// class, the tenant with the least weighted usage; within a tenant,
// FIFO (with requeued preemption victims at the head).
func (s *Scheduler) Next() *Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if tk := s.popLocked(); tk != nil {
			now := time.Now()
			wait := now.Sub(tk.enqueued).Seconds()
			s.waitEWMA[tk.class].Observe(wait)
			s.dequeued[tk.class]++
			tk.started = now
			tk.preempting = false
			tk.preemptCh = make(chan struct{}) // re-arm for this attempt
			s.running[tk] = struct{}{}
			return tk
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) popLocked() *Ticket {
	for c := int(numClasses) - 1; c >= 0; c-- {
		qs := s.queues[c]
		if s.queuedByClass[c] == 0 {
			continue
		}
		// Least weighted usage first; tie-break on tenant name so the
		// order is deterministic.
		var pick string
		var pickQ *tenantQueue
		first := true
		for tenant, tq := range qs {
			if len(tq.items) == 0 {
				continue
			}
			u := s.usage[tenant] / s.weight(tenant)
			if first || u < s.usage[pick]/s.weight(pick) ||
				(u == s.usage[pick]/s.weight(pick) && tenant < pick) {
				pick, pickQ, first = tenant, tq, false
			}
		}
		if pickQ == nil {
			continue
		}
		tk := pickQ.items[0]
		copy(pickQ.items, pickQ.items[1:])
		pickQ.items = pickQ.items[:len(pickQ.items)-1]
		if len(pickQ.items) == 0 {
			delete(qs, pick)
		}
		s.queuedByClass[c]--
		s.queuedTotal--
		return tk
	}
	return nil
}

// Requeue re-admits a preempted ticket at the head of its class queue
// so it resumes as soon as a worker frees. It bypasses the admission
// caps — the ticket was admitted once and must not be dropped because
// the queue filled while it ran.
func (s *Scheduler) Requeue(tk *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.running[tk]; !ok {
		return
	}
	delete(s.running, tk)
	s.chargeLocked(tk)
	tk.preempting = false
	tk.resumes++
	s.requeues++
	tk.enqueued = time.Now()
	s.pushLocked(tk, true)
	s.cond.Broadcast()
}

// Finish records a completed (or failed/cancelled) execution: the
// ticket leaves the running set, its runtime feeds the wait estimates,
// and its tenant is charged for the service consumed.
func (s *Scheduler) Finish(tk *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.running[tk]; !ok {
		return
	}
	delete(s.running, tk)
	d := s.chargeLocked(tk)
	s.avgRunS.Observe(d)
	s.cond.Broadcast()
}

// Abort removes a ticket that never actually executed (cancelled while
// queued and skipped by the worker) without polluting the runtime
// estimates or tenant usage.
func (s *Scheduler) Abort(tk *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, tk)
	s.cond.Broadcast()
}

// chargeLocked bills the ticket's tenant for the service it consumed
// since Next and returns the duration in seconds.
func (s *Scheduler) chargeLocked(tk *Ticket) float64 {
	d := time.Since(tk.started).Seconds()
	if d < 0 {
		d = 0
	}
	s.usage[tk.tenant] += d / s.weight(tk.tenant)
	return d
}

// estAlpha smooths the run-duration and queue-wait estimates; the
// first observation seeds each average.
const estAlpha = 0.3

// ObserveRun feeds one run duration into the estimator without a
// ticket — used by recovery paths and tests to seed the estimates.
func (s *Scheduler) ObserveRun(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.avgRunS.Observe(d.Seconds())
}

// Close stops admissions. Next keeps returning queued tickets until
// the queues are drained, then returns nil.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// estimateLocked predicts the queue wait for a newly-submitted ticket
// of the given class: jobs ahead of it (higher classes, plus its own
// class) each cost one average run, running jobs are half done on
// average, and the worker pool divides the backlog. An interactive
// arrival that could preempt a running lower-class job skips the
// running backlog entirely — preemption frees a slot in roughly one
// checkpoint, not one run.
func (s *Scheduler) estimateLocked(class Class) time.Duration {
	if !s.avgRunS.Started() {
		return 0 // no data; admit and let observation start
	}
	ahead := 0
	for c := int(class); c < int(numClasses); c++ {
		ahead += s.queuedByClass[c]
	}
	busy := float64(len(s.running))
	if class == Interactive {
		for tk := range s.running {
			if tk.class < Interactive && !tk.preempting {
				busy = 0 // a victim exists; preemption clears the path
				break
			}
		}
	}
	avg := s.avgRunS.Value()
	est := (float64(ahead)*avg + busy*avg/2) / float64(s.cfg.Workers)
	return time.Duration(est * float64(time.Second))
}

// slotFreeLocked estimates when a queue slot frees: the nearest
// expected completion among the busy workers (each ~half done).
func (s *Scheduler) slotFreeLocked() time.Duration {
	if !s.avgRunS.Started() || len(s.running) == 0 {
		return 0
	}
	return time.Duration(s.avgRunS.Value() / 2 / float64(s.cfg.Workers) * float64(time.Second))
}

// EstimateWait returns the live queue-wait estimate for the class
// (zero when the scheduler has no runtime observations yet).
func (s *Scheduler) EstimateWait(class Class) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimateLocked(class)
}

// RetryAfterHint returns the live slot-free estimate backing 429
// Retry-After headers (zero when there is no data yet — callers fall
// back to their static hint and clamp to >= 1s per RFC 9110).
func (s *Scheduler) RetryAfterHint() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slotFreeLocked()
}

// QueuedTotal reports how many admitted tickets are waiting.
func (s *Scheduler) QueuedTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedTotal
}

// RunningCount reports how many tickets are executing.
func (s *Scheduler) RunningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running)
}

// Preemptions reports how many preemption signals have been issued.
func (s *Scheduler) Preemptions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preemptions
}

// metricName makes a tenant label safe for the flat "name value" text
// format (spaces would split the line).
func metricName(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, tenant)
}

// Registry snapshots the scheduler's counters and estimates as a
// telemetry registry — the same "name value" surface edmd serves on
// /metricsz. Build per scrape: tenants come and go, and registration
// is one-shot.
func (s *Scheduler) Registry() *telemetry.Registry {
	s.mu.Lock()
	type snap struct {
		name string
		v    float64
	}
	rows := []snap{
		{"sched.preemptions", float64(s.preemptions)},
		{"sched.requeues", float64(s.requeues)},
		{"sched.load_shed_total", float64(s.shedCount)},
		{"sched.max_wait_rejected_total", float64(s.maxWaitRej)},
		{"sched.running", float64(len(s.running))},
		{"sched.avg_run_s", s.avgRunS.Value()},
	}
	for _, c := range Classes() {
		rows = append(rows,
			snap{"sched.queue_depth." + c.String(), float64(s.queuedByClass[c])},
			snap{"sched.queue_wait_s." + c.String(), s.waitEWMA[c].Value()},
			snap{"sched.dequeued_total." + c.String(), float64(s.dequeued[c])},
		)
	}
	var total float64
	tenants := make([]string, 0, len(s.usage))
	for tenant, u := range s.usage {
		tenants = append(tenants, tenant)
		total += u
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		share := 0.0
		if total > 0 {
			share = s.usage[tenant] / total
		}
		rows = append(rows, snap{"sched.tenant_share." + metricName(tenant), share})
	}
	s.mu.Unlock()

	reg := telemetry.NewRegistry()
	for _, r := range rows {
		v := r.v
		reg.Gauge(r.name, func(sim.Time) float64 { return v })
	}
	return reg
}
