package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"edm"
	"edm/internal/experiment"
	"edm/internal/server"
)

// ClientConfig describes a Client for one edmd worker.
type ClientConfig struct {
	// BaseURL is the worker's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (default: a plain http.Client;
	// per-call deadlines come from contexts, not a client timeout).
	// Fault-injection tests install a chaos.HTTPScript as its
	// Transport.
	HTTP *http.Client
	// MaxRetries bounds the transient-failure retries per call
	// (default 4; the first attempt is not a retry).
	MaxRetries int
	// RetryBase/RetryMax shape the backoff between retries: the delay
	// doubles from RetryBase, is capped at RetryMax, and is jittered
	// to half-to-full value (defaults 50ms / 2s). A server retry hint
	// (server.APIError.RetryAfter) overrides the computed delay.
	RetryBase time.Duration
	RetryMax  time.Duration
	// PollInterval is the job-status polling cadence while a submitted
	// run executes (default 100ms).
	PollInterval time.Duration
	// Priority is the scheduling class stamped on every cell this
	// client submits ("batch", "normal" or "interactive"; empty leaves
	// the worker's default, normal). Sweeps typically run "batch" so
	// ad-hoc interactive work can preempt them.
	Priority string
	// Tenant is the fair-share accounting identity stamped on every
	// cell this client submits (empty: the worker's default tenant).
	Tenant string
}

func (c *ClientConfig) applyDefaults() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
}

// Client is the coordinator's view of one edmd worker: a
// server.Client — the only code that speaks the wire protocol — plus
// a retry policy, the submit→poll loop and the cell's scheduling
// identity. It is safe for concurrent use; Retries exposes how many
// transient-failure retries it has performed (the coordinator's
// per-worker counter).
//
// Errors keep the server's sentinels: a permanent rejection or an
// exhausted retry budget wraps the underlying *server.APIError, so
// errors.Is(err, server.ErrUnknownJob) holds after dispatch exactly as
// it does for edmctl.
type Client struct {
	cfg ClientConfig
	api *server.Client

	// Retries counts call attempts beyond the first, across all calls.
	Retries atomic.Uint64
}

// NewClient builds a client for the worker at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	cfg.applyDefaults()
	return &Client{cfg: cfg, api: server.NewClient(cfg.BaseURL, cfg.HTTP)}
}

// BaseURL returns the worker's root URL.
func (c *Client) BaseURL() string { return c.api.BaseURL() }

// Health probes GET /healthz once — no retries; the caller is usually
// deciding liveness and wants the answer now. A draining worker (503
// with a JSON body) decodes successfully with OK() == false; any
// failure wraps ErrUnavailable.
func (c *Client) Health(ctx context.Context) (server.HealthInfo, error) {
	h, err := c.api.Health(ctx)
	if err != nil {
		return server.HealthInfo{}, fmt.Errorf("%w: %s: %w", ErrUnavailable, c.BaseURL(), err)
	}
	return h, nil
}

// Version fetches GET /v1/version (with retries: it is part of fleet
// bring-up, where a worker may still be binding its listener).
func (c *Client) Version(ctx context.Context) (v server.VersionInfo, err error) {
	err = c.retry(ctx, "version", func() error {
		v, err = c.api.Version(ctx)
		return err
	})
	return v, err
}

// Submit posts one run request and returns the accepted job's status.
// Queue-full (429) and transient failures are retried; exhausted
// retries surface as ErrUnavailable.
func (c *Client) Submit(ctx context.Context, req server.RunRequest) (st server.JobStatus, err error) {
	err = c.retry(ctx, "submit", func() error {
		st, err = c.api.Submit(ctx, req)
		return err
	})
	return st, err
}

// Status fetches one job's status; once the job is done the result is
// attached.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, *edm.Result, error) {
	var view server.RunView
	err := c.retry(ctx, "status "+id, func() (err error) {
		view, err = c.api.Status(ctx, id)
		return err
	})
	return view.JobStatus, view.Result, err
}

// Cancel requests cancellation of a job (best effort: a terminal job
// is left as is).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.retry(ctx, "cancel "+id, func() error {
		_, err := c.api.Cancel(ctx, id)
		return err
	})
}

// Checkpoint requests an on-demand checkpoint of a running job and
// returns the digest-sealed frame. Single attempt, like Health: the
// caller is stashing resume state on a cadence and prefers a quick
// miss over a retry storm against a dying worker.
// server.ErrNoCheckpoint when the job finished without a frame.
func (c *Client) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	frame, err := c.api.Checkpoint(ctx, id)
	return frame, c.once(err)
}

// LatestCheckpoint fetches the newest cadence frame without perturbing
// the run; server.ErrNoCheckpoint when the run has not checkpointed.
func (c *Client) LatestCheckpoint(ctx context.Context, id string) ([]byte, error) {
	frame, err := c.api.LatestCheckpoint(ctx, id)
	return frame, c.once(err)
}

// once classifies a single-attempt call's error: ErrNoCheckpoint
// passes through, a server rejection keeps its *server.APIError, and
// anything else means the worker could not be reached.
func (c *Client) once(err error) error {
	var apiErr *server.APIError
	switch {
	case err == nil, errors.Is(err, server.ErrNoCheckpoint):
		return err
	case errors.As(err, &apiErr):
		return fmt.Errorf("dispatch: %s: %w", c.BaseURL(), err)
	default:
		return fmt.Errorf("%w: %s: %w", ErrUnavailable, c.BaseURL(), err)
	}
}

// Run executes one request end to end: submit, poll until terminal,
// return the result. A job the worker reports as failed or cancelled
// returns an error wrapping ErrRunFailed; a worker that stops
// answering returns one wrapping ErrUnavailable.
func (c *Client) Run(ctx context.Context, req server.RunRequest) (*edm.Result, error) {
	return c.run(ctx, req, nil)
}

// run is Run plus checkpoint stashing: when onFrame is non-nil, each
// status poll of a running job also fetches the newest checkpoint
// frame and hands it to onFrame. Frame fetches are best effort — a
// miss (no frame yet, worker wobble) never fails the run.
func (c *Client) run(ctx context.Context, req server.RunRequest, onFrame func([]byte)) (*edm.Result, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
		cur, res, err := c.Status(ctx, st.ID)
		if err != nil {
			return nil, err
		}
		if onFrame != nil && cur.State == server.StateRunning {
			if frame, err := c.LatestCheckpoint(ctx, st.ID); err == nil && len(frame) > 0 {
				onFrame(frame)
			}
		}
		switch cur.State {
		case server.StateDone:
			if res == nil {
				return nil, fmt.Errorf("%w: %s: job %s done without result", ErrUnavailable, c.BaseURL(), st.ID)
			}
			return res, nil
		case server.StateFailed, server.StateCancelled:
			return nil, fmt.Errorf("%w: job %s %s on %s: %s", ErrRunFailed, st.ID, cur.State, c.BaseURL(), cur.Error)
		}
	}
}

// RunCell executes one cell spec remotely. The worker runs the exact
// simulation experiment.RunCell would run locally — the request
// carries every field of the spec and nothing else.
func (c *Client) RunCell(ctx context.Context, spec experiment.CellSpec) (*edm.Result, error) {
	return c.Run(ctx, c.cellRequest(spec))
}

// RunCellResumable executes one cell with checkpoint stashing: the
// worker checkpoints every `every` fired events, each status poll
// pulls the newest frame into onFrame, and a non-nil resume stream
// continues a previous (killed) execution from its last stashed frame
// instead of starting over — the worker fast-forwards, verifies the
// sealed state, and finishes with bytes identical to an uninterrupted
// run.
func (c *Client) RunCellResumable(ctx context.Context, spec experiment.CellSpec, every uint64, resume []byte, onFrame func([]byte)) (*edm.Result, error) {
	req := c.cellRequest(spec)
	req.CheckpointEvery = every
	req.Resume = resume
	return c.run(ctx, req, onFrame)
}

// cellRequest is RequestForCell plus the client's scheduling identity:
// the configured priority class and tenant ride along on every cell
// submission without becoming part of the spec (they change where and
// when the cell runs, never what it computes).
func (c *Client) cellRequest(spec experiment.CellSpec) server.RunRequest {
	req := RequestForCell(spec)
	req.Priority = c.cfg.Priority
	req.Tenant = c.cfg.Tenant
	return req
}

// RequestForCell converts a cell spec to the wire request an edmd
// worker executes. The mapping is total: every CellSpec field lands in
// the request, and the worker-side defaults (groups=4, k=4) match the
// local harness, so remote and local runs are byte-identical.
func RequestForCell(spec experiment.CellSpec) server.RunRequest {
	name, err := spec.Policy.MarshalText()
	if err != nil {
		name = []byte(spec.Policy.String())
	}
	return server.RunRequest{
		Workload: spec.Trace,
		Scale:    spec.Scale,
		OSDs:     spec.OSDs,
		Policy:   string(name),
		Lambda:   spec.Lambda,
		Seed:     spec.Seed,
		Check:    spec.Check,
	}
}

// retry runs call under the retry policy. A transport failure or a
// temporary server rejection (APIError.Temporary: 429, 5xx) is retried
// with capped exponential backoff + jitter, waiting exactly the
// server's RetryAfter hint when it sent one; any other rejection is
// permanent. Exhausted retries wrap both ErrUnavailable and the last
// error.
func (c *Client) retry(ctx context.Context, op string, call func() error) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		err := call()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var wait time.Duration
		var apiErr *server.APIError
		if errors.As(err, &apiErr) {
			if !apiErr.Temporary() {
				return fmt.Errorf("dispatch: %s: %s: %w", c.BaseURL(), op, err)
			}
			wait = apiErr.RetryAfter
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("%w: %s: %s: %d attempts: %w", ErrUnavailable, c.BaseURL(), op, attempt+1, err)
		}
		if wait == 0 {
			wait = c.backoff(attempt)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// backoff computes the jittered exponential delay for a retry attempt:
// uniformly random in [d/2, d] where d = min(base<<attempt, max).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << attempt
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
