package chaos

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport answers every exchange 200 and counts how many
// reached it — the stand-in for the network under an HTTPScript.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
}

// exchange sends one request through the script and reports whether
// it was dropped (failed without reaching the base transport).
func exchange(t *testing.T, s *HTTPScript, base *countingTransport, method, url string) (dropped bool) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := base.n.Load()
	resp, err := s.RoundTrip(req)
	reached := base.n.Load() > before
	if (err != nil) == reached {
		t.Fatalf("%s %s: err=%v but base reached=%v", method, url, err, reached)
	}
	if resp != nil {
		resp.Body.Close()
	}
	return err != nil
}

func TestHTTPScriptDropNth(t *testing.T) {
	base := &countingTransport{}
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDropResponse, Path: "/v1/runs", Nth: 1},
	}}, base)
	if exchange(t, s, base, "POST", "http://w1/v1/runs") {
		t.Error("exchange 0 dropped, want exchange 1")
	}
	if exchange(t, s, base, "GET", "http://w1/healthz") {
		t.Error("non-matching path dropped")
	}
	if !exchange(t, s, base, "POST", "http://w1/v1/runs") {
		t.Error("exchange 1 not dropped")
	}
	if exchange(t, s, base, "POST", "http://w1/v1/runs") {
		t.Error("exchange 2 dropped; drop-response fires once")
	}
}

func TestHTTPScriptWorkerDeath(t *testing.T) {
	base := &countingTransport{}
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultWorkerDeath, Path: "w2:80", Nth: 2},
	}}, base)
	for i := 0; i < 2; i++ {
		if exchange(t, s, base, "GET", "http://w2:80/v1/version") {
			t.Fatalf("exchange %d dropped before death at 2", i)
		}
	}
	for i := 2; i < 6; i++ {
		if !exchange(t, s, base, "GET", "http://w2:80/v1/version") {
			t.Fatalf("exchange %d served after worker death", i)
		}
		if exchange(t, s, base, "GET", "http://w1:80/v1/version") {
			t.Fatalf("exchange %d to a live worker dropped", i)
		}
	}
}

func TestHTTPScriptDelay(t *testing.T) {
	base := &countingTransport{}
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDelayResponse, Path: "/healthz", Nth: 0, WallDelay: 30 * time.Millisecond},
	}}, base)
	start := time.Now()
	if exchange(t, s, base, "GET", "http://w1/healthz") {
		t.Fatal("delayed exchange dropped")
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("exchange 0 took %v, want >= 30ms", d)
	}

	if exchange(t, s, base, "GET", "http://w1/healthz") {
		t.Error("exchange 1 dropped")
	}

	// A stall honours the request's deadline.
	s = NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDelayResponse, Nth: 0, WallDelay: time.Hour},
	}}, base)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://w1/healthz", nil)
	if _, err := s.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled exchange err = %v, want DeadlineExceeded", err)
	}
}

func TestHTTPScriptNoDispatchFaults(t *testing.T) {
	base := &countingTransport{}
	s := NewHTTPScript(Plan{Faults: []Fault{{Kind: FaultFail, OSD: 1}}}, base)
	for i := 0; i < 3; i++ {
		if exchange(t, s, base, "POST", "http://w1/v1/runs") {
			t.Fatalf("exchange %d dropped by a device-only plan", i)
		}
	}
	if got := s.Exchanges(); len(got) != 0 {
		t.Errorf("device-only plan scripted %d dispatch faults", len(got))
	}
}

func TestHTTPScriptExchangeCounting(t *testing.T) {
	base := &countingTransport{}
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDropResponse, Path: "/v1/runs", Nth: 5},
		{Kind: FaultWorkerDeath, Nth: 99},
	}}, base)
	exchange(t, s, base, "POST", "http://w1/v1/runs")
	exchange(t, s, base, "GET", "http://w1/healthz")
	exchange(t, s, base, "GET", "http://w1/v1/runs/abc")
	got := s.Exchanges()
	if got[0] != 2 { // the two /v1/runs exchanges
		t.Errorf("fault 0 saw %d exchanges, want 2", got[0])
	}
	if got[1] != 3 { // empty path matches everything
		t.Errorf("fault 1 saw %d exchanges, want 3", got[1])
	}
}
