package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"edm"
)

// TestStateDirRecoveryTable pins what recovery makes of damaged or
// partial state files: it resumes what it can, restarts what it must,
// and removes whatever no later restart could use.
func TestStateDirRecoveryTable(t *testing.T) {
	req := fastReq()
	want := directRun(t, req)
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// A frame stream of the same run, several frames long.
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	if _, err := edm.Run(context.Background(), spec, edm.WithCheckpoint(&frames, 2_000)); err != nil {
		t.Fatal(err)
	}
	stream := frames.Bytes()
	garbage := []byte("not a snapshot frame")

	const id = "run-7"
	cases := []struct {
		name       string
		req, ckpt  []byte // nil: file absent
		wantResume bool   // recovered job resumes from the .ckpt
		dropped    bool   // nothing is recovered and both files are gone
	}{
		{name: "garbage req", req: []byte("{not json"), ckpt: stream, dropped: true},
		{name: "unbuildable req", req: []byte(`{"workload":"home02","scale":400,"osds":6}`), ckpt: garbage, dropped: true},
		{name: "torn ckpt tail", req: reqJSON, ckpt: stream[:len(stream)-7], wantResume: true},
		{name: "garbage ckpt", req: reqJSON, ckpt: garbage},
		{name: "lone ckpt", ckpt: stream, dropped: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reqPath, ckPath := filepath.Join(dir, id+".req"), filepath.Join(dir, id+".ckpt")
			for path, data := range map[string][]byte{reqPath: tc.req, ckPath: tc.ckpt} {
				if data != nil {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			s := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			})
			gone := func(path string) bool {
				_, err := os.Stat(path)
				return errors.Is(err, os.ErrNotExist)
			}

			if tc.dropped {
				if n := s.Recovered(); n != 0 {
					t.Fatalf("recovered %d jobs, want 0", n)
				}
				if !gone(reqPath) || !gone(ckPath) {
					t.Fatal("unusable state files left on disk")
				}
				return
			}
			if n := s.Recovered(); n != 1 {
				t.Fatalf("recovered %d jobs, want 1", n)
			}
			c := NewClient(ts.URL, ts.Client())
			waitState(t, c, id, StateDone, 60*time.Second)
			view, err := c.Status(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if resumed := len(view.Request.Resume) > 0; resumed != tc.wantResume {
				t.Fatalf("resumed from the .ckpt = %v, want %v", resumed, tc.wantResume)
			}
			got, err := json.Marshal(view.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered job result differs from an uninterrupted run:\n got: %.200s\nwant: %.200s", got, want)
			}
		})
	}
}
