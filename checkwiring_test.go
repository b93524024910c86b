package edm_test

import (
	"bytes"
	"context"
	"testing"

	"edm"
	"edm/internal/experiment"
	"edm/internal/server"
)

// TestSetupInstallsCheckerForEverySelfCheckSpec pins the one meaning of
// "check": every way a checked run is described — the WithCheck
// option, a checked experiment cell, a checked edmd request, and the
// spec a checked run's checkpoint frame carries — installs the
// event-stream checker, and the cluster never runs a second state
// audit of its own. Without the flag, nothing is installed.
func TestSetupInstallsCheckerForEverySelfCheckSpec(t *testing.T) {
	base := edm.Spec{Workload: "home02", OSDs: 16, Scale: 400, Seed: 3}
	cellSpec := func(check bool) edm.Spec {
		return experiment.CellSpec{Trace: "home02", OSDs: 16, Policy: experiment.HDF, Scale: 400, Seed: 3, Check: check}.Spec()
	}
	requestSpec := func(req server.RunRequest) edm.Spec {
		t.Helper()
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	frameSpec := func(opts ...edm.RunOption) edm.Spec {
		t.Helper()
		var frames bytes.Buffer
		if _, err := edm.Run(context.Background(), base, append(opts, edm.WithCheckpoint(&frames, 2_000))...); err != nil {
			t.Fatal(err)
		}
		return requestSpec(server.RunRequest{Resume: frames.Bytes()})
	}

	cases := []struct {
		name    string
		spec    edm.Spec
		opts    []edm.RunOption
		checked bool
	}{
		{"WithCheck", base, []edm.RunOption{edm.WithCheck()}, true},
		{"CellSpec.Check", cellSpec(true), nil, true},
		{"RunRequest.Check", requestSpec(server.RunRequest{Workload: "home02", Scale: 400, Check: true}), nil, true},
		{"resumed frame of a checked run", frameSpec(edm.WithCheck()), nil, true},
		{"plain spec", base, nil, false},
		{"unchecked CellSpec", cellSpec(false), nil, false},
		{"unchecked RunRequest", requestSpec(server.RunRequest{Workload: "home02", Scale: 400}), nil, false},
		{"resumed frame of an unchecked run", frameSpec(), nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checker, clusterAudit, err := edm.CheckWiring(tc.spec, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if checker != tc.checked {
				t.Errorf("checker installed = %v, want %v", checker, tc.checked)
			}
			if clusterAudit {
				t.Error("cluster built with its own state audit; check.Audit already runs it")
			}
		})
	}
}
