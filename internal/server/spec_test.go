package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"edm/internal/cluster"
)

// unbuildableBodies are run requests whose fields each parse but whose
// cluster the simulator cannot build: 17 OSDs do not split into 4
// equal groups, 16 OSDs do not split into 5, k=9 exceeds m=4 groups,
// and a negative cluster has no devices.
var unbuildableBodies = []struct{ name, body string }{
	{"osds not divisible by groups", `{"workload":"home02","osds":17}`},
	{"groups not dividing osds", `{"workload":"home02","groups":5}`},
	{"objects per file above groups", `{"workload":"home02","objects_per_file":9}`},
	{"negative osds", `{"workload":"home02","osds":-4}`},
}

// TestSubmitRejectsUnbuildableShapes: a request whose cluster shape
// cluster.New would refuse is rejected at submission (400 bad_request)
// instead of being queued to fail later.
func TestSubmitRejectsUnbuildableShapes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, tc := range unbuildableBodies {
		t.Run(tc.name, func(t *testing.T) {
			var req RunRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			if _, err := req.Spec(); !errors.Is(err, cluster.ErrInvalidConfig) {
				t.Errorf("Spec() = %v, want wrapping cluster.ErrInvalidConfig", err)
			}

			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var ae ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
				t.Fatal(err)
			}
			if ae.Code != codeBadRequest {
				t.Errorf("code = %q, want %q", ae.Code, codeBadRequest)
			}
		})
	}
}

// FuzzRunRequest feeds arbitrary bodies through the request decoder:
// conversion and class parsing never panic, and every request accepted
// without a resume frame describes a run edm.Spec.Validate accepts,
// so nothing edmd admits fails later for its shape.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"workload":"home02","scale":400,"osds":16,"policy":"hdf","seed":3}`))
	f.Add([]byte(`{"workload":"random","groups":2,"objects_per_file":2,"migration":"periodic","priority":"batch"}`))
	for _, tc := range unbuildableBodies {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		_, _ = req.class()
		spec, err := req.Spec()
		if err != nil || len(req.Resume) > 0 {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted %s, but its spec fails validation: %v", body, err)
		}
	})
}
