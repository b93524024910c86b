package chaos

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// HTTPScript turns a Plan's dispatch-layer faults into an
// http.RoundTripper: install it as the Transport of the http.Client a
// dispatch.ClientConfig carries, and every exchange the coordinator
// makes — retries included — runs through the script. It counts
// exchanges per fault, over exchanges whose "host/path" (e.g.
// "127.0.0.1:8081/v1/runs/run-1") contains the fault's Path, so a
// fault can target an endpoint, one worker, or both. Each fault fires
// at its Nth match:
//
//   - drop-response fails exactly the Nth matching exchange, without
//     touching the base transport, as if the response was lost;
//   - delay-response stalls exactly the Nth matching exchange by
//     WallDelay before it is issued (context-aware, so deadlines
//     still fire during an injected stall);
//   - worker-death fails every matching exchange from the Nth onward
//     (the worker died mid-conversation and never answers again).
//
// Exchanges that no fault drops go to the base transport. The script
// is safe for concurrent use. Device-kind faults in the plan are
// ignored — they belong to the virtual-clock Injector.
type HTTPScript struct {
	base   http.RoundTripper
	mu     sync.Mutex
	faults []scriptFault
}

type scriptFault struct {
	f    Fault
	seen int
}

// NewHTTPScript builds a script from the plan's dispatch faults over
// base (nil: http.DefaultTransport).
func NewHTTPScript(p Plan, base http.RoundTripper) *HTTPScript {
	if base == nil {
		base = http.DefaultTransport
	}
	s := &HTTPScript{base: base}
	for _, f := range p.DispatchFaults() {
		s.faults = append(s.faults, scriptFault{f: f})
	}
	return s
}

// RoundTrip applies the script's verdict for this exchange, then
// forwards it to the base transport unless it was dropped.
func (s *HTTPScript) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, delay := s.verdict(req.URL.Host + req.URL.Path)
	var err error
	if delay > 0 {
		select {
		case <-req.Context().Done():
			err = req.Context().Err()
		case <-time.After(delay):
		}
	}
	if err == nil && drop {
		err = fmt.Errorf("chaos: injected response drop (%s %s)", req.Method, req.URL)
	}
	if err != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	return s.base.RoundTrip(req)
}

// verdict advances every matching fault's exchange count and reports
// whether this exchange is dropped and how long it stalls first.
func (s *HTTPScript) verdict(target string) (drop bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.faults {
		sf := &s.faults[i]
		if sf.f.Path != "" && !strings.Contains(target, sf.f.Path) {
			continue
		}
		n := sf.seen
		sf.seen++
		switch sf.f.Kind {
		case FaultDropResponse:
			drop = drop || n == sf.f.Nth
		case FaultWorkerDeath:
			drop = drop || n >= sf.f.Nth
		case FaultDelayResponse:
			if n == sf.f.Nth && sf.f.WallDelay > delay {
				delay = sf.f.WallDelay
			}
		}
	}
	return drop, delay
}

// Exchanges reports how many exchanges each fault has seen so far
// (indexed like the plan's dispatch faults) — test observability.
func (s *HTTPScript) Exchanges() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.faults))
	for i := range s.faults {
		out[i] = s.faults[i].seen
	}
	return out
}
