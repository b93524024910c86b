package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edm"
	"edm/internal/experiment"
	"edm/internal/server"
)

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(server.ErrorBody{Code: "internal", Message: "transient"})
			return
		}
		json.NewEncoder(w).Encode(server.VersionInfo{Service: "edmd", Version: "x"})
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatalf("Version after transient failures: %v", err)
	}
	if v.Service != "edmd" {
		t.Errorf("decoded %+v", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	if got := c.Retries.Load(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
}

// TestClientPermanent4xxDoesNotRetry covers a code-less 4xx (a proxy
// answering in plain text): permanent, with the body kept as the
// message. The envelope cases are in TestClientErrorsKeepServerSentinels.
func TestClientPermanent4xxDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such run", http.StatusNotFound)
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	_, _, err := c.Status(context.Background(), "nope")
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Errorf("4xx misclassified as unavailability: %v", err)
	}
	if !strings.Contains(err.Error(), "no such run") {
		t.Errorf("server's error message lost: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retries)", got)
	}
	if got := c.Retries.Load(); got != 0 {
		t.Errorf("Retries = %d, want 0", got)
	}
}

func TestClientExhaustsRetriesAsUnavailable(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()

	cfg := fastClient() // MaxRetries: 2
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	_, err := c.Version(context.Background())
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + MaxRetries)", got)
	}
}

// TestClientErrorsKeepServerSentinels pins the error contract against
// the real envelope: permanent rejections make one attempt and keep
// the server's sentinel; temporary ones are retried, honour the
// server's retry hint, and once exhausted wrap both ErrUnavailable and
// the sentinel.
func TestClientErrorsKeepServerSentinels(t *testing.T) {
	submit := func(c *Client) error {
		_, err := c.Submit(context.Background(), server.RunRequest{Workload: "home02"})
		return err
	}
	status := func(c *Client) error {
		_, _, err := c.Status(context.Background(), "run-99999999")
		return err
	}
	for _, tc := range []struct {
		name       string
		status     int
		code       string
		retryAfter string // Retry-After header, empty for none
		okAfter    int64  // calls after this many succeed (0: never)
		call       func(*Client) error

		wantOK          bool
		wantSentinel    error // nil: no sentinel to check
		wantUnavailable bool
		wantCalls       int64
		minElapsed      time.Duration
	}{
		{name: "not_found", status: http.StatusNotFound, code: "not_found", call: status,
			wantSentinel: server.ErrUnknownJob, wantCalls: 1},
		{name: "bad_request", status: http.StatusBadRequest, code: "bad_request", call: submit,
			wantCalls: 1},
		{name: "unknown_workload", status: http.StatusBadRequest, code: "unknown_workload", call: submit,
			wantSentinel: edm.ErrUnknownWorkload, wantCalls: 1},
		{name: "load_shed exhausted", status: http.StatusTooManyRequests, code: "load_shed", call: submit,
			wantSentinel: server.ErrLoadShed, wantUnavailable: true, wantCalls: 3},
		{name: "queue_full honours Retry-After", status: http.StatusTooManyRequests, code: "queue_full",
			retryAfter: "1", okAfter: 1, call: submit, wantOK: true, wantCalls: 2, minElapsed: time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if n := calls.Add(1); tc.okAfter > 0 && n > tc.okAfter {
					json.NewEncoder(w).Encode(server.JobStatus{ID: "run-1"})
					return
				}
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(server.ErrorBody{Code: tc.code, Message: "rejected: " + tc.name})
			}))
			defer ts.Close()

			cfg := fastClient() // MaxRetries: 2, backoff <= 4ms
			cfg.BaseURL = ts.URL
			c := NewClient(cfg)
			start := time.Now()
			err := tc.call(c)
			elapsed := time.Since(start)

			if (err == nil) != tc.wantOK {
				t.Fatalf("err = %v, want success %v", err, tc.wantOK)
			}
			if tc.wantSentinel != nil && !errors.Is(err, tc.wantSentinel) {
				t.Fatalf("err = %v, want errors.Is %v", err, tc.wantSentinel)
			}
			if got := errors.Is(err, ErrUnavailable); got != tc.wantUnavailable {
				t.Errorf("errors.Is(err, ErrUnavailable) = %v, want %v (err %v)", got, tc.wantUnavailable, err)
			}
			var apiErr *server.APIError
			if err != nil && !errors.As(err, &apiErr) {
				t.Errorf("err %v does not wrap *server.APIError", err)
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Errorf("server saw %d calls, want %d", got, tc.wantCalls)
			}
			if got := c.Retries.Load(); got != uint64(tc.wantCalls-1) {
				t.Errorf("Retries = %d, want %d", got, tc.wantCalls-1)
			}
			if elapsed < tc.minElapsed {
				t.Errorf("call took %v, want >= %v (server retry hint ignored)", elapsed, tc.minElapsed)
			}
		})
	}
}

func TestBackoffBounds(t *testing.T) {
	cfg := ClientConfig{RetryBase: 10 * time.Millisecond, RetryMax: 80 * time.Millisecond}
	c := NewClient(cfg)
	for attempt := 0; attempt < 12; attempt++ {
		ceil := cfg.RetryBase << attempt
		if ceil > cfg.RetryMax || ceil <= 0 {
			ceil = cfg.RetryMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < ceil/2 || d > ceil {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
	}
}

func TestHealthDecodesDrainingWorker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.HealthInfo{Status: "draining", Workers: 2})
	}))
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	h, err := NewClient(cfg).Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.OK() {
		t.Error("draining worker reported OK")
	}
	if h.Status != "draining" || h.Workers != 2 {
		t.Errorf("decoded %+v", h)
	}
}

func TestRunReportsFailedJobAsRunFailed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateFailed, Error: "unknown workload"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	_, err := NewClient(cfg).Run(context.Background(), server.RunRequest{Workload: "nope"})
	if !errors.Is(err, ErrRunFailed) {
		t.Fatalf("err = %v, want ErrRunFailed", err)
	}
	if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("job error lost: %v", err)
	}
}

// TestRequestForCellKeepsSpec pins the remote half of the one
// cell → spec translation: the run request a worker receives converts
// back (RunRequest.Spec) to exactly the edm.Spec a local RunCell
// executes, for every matrix cell with and without Check.
func TestRequestForCellKeepsSpec(t *testing.T) {
	for _, check := range []bool{false, true} {
		for _, c := range experiment.MatrixSpecs(experiment.Options{Scale: 50, Seed: 9, Check: check}) {
			got, err := RequestForCell(c).Spec()
			if err != nil {
				t.Fatalf("RequestForCell(%s).Spec(): %v", c.Key(), err)
			}
			if want := c.Spec(); !reflect.DeepEqual(got, want) {
				t.Fatalf("RequestForCell(%s).Spec() = %+v, want %+v", c.Key(), got, want)
			}
		}
	}
}

// TestCellSubmitCarriesSchedulingIdentity pins the priority/tenant
// passthrough: a client configured with a scheduling class and tenant
// stamps them on every cell submission's wire body, while the spec
// mapping itself (RequestForCell) stays identity-free.
func TestCellSubmitCarriesSchedulingIdentity(t *testing.T) {
	spec := fakeSpec("prio")
	if req := RequestForCell(spec); req.Priority != "" || req.Tenant != "" {
		t.Fatalf("RequestForCell carries scheduling identity: %+v", req)
	}

	var got server.RunRequest
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(rw http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("decoding submission: %v", err)
		}
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		view := struct {
			server.JobStatus
			Result any `json:"result"`
		}{JobStatus: server.JobStatus{ID: "j1", State: server.StateDone}, Result: fakeResult(got)}
		json.NewEncoder(rw).Encode(view)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := fastClient()
	cfg.BaseURL = ts.URL
	cfg.Priority = "batch"
	cfg.Tenant = "sweep-42"
	if _, err := NewClient(cfg).RunCell(context.Background(), spec); err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got.Priority != "batch" || got.Tenant != "sweep-42" {
		t.Errorf("submission carried priority=%q tenant=%q, want batch/sweep-42", got.Priority, got.Tenant)
	}
}

func TestRunEndToEndAgainstFake(t *testing.T) {
	w := newFakeWorker(newFakeFleet(nil))
	defer w.kill()

	cfg := fastClient()
	cfg.BaseURL = w.url()
	c := NewClient(cfg)
	spec := fakeSpec("e2e")
	res, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if res.Trace != spec.Trace || res.OSDs != spec.OSDs {
		t.Errorf("result %+v does not match spec %+v", res, spec)
	}
}
