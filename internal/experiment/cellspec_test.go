package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"edm"
)

// cellTestOpts is a sweep small enough (~15ms per cell) for end-to-end
// comparisons: one trace, one cluster size, all four policies.
func cellTestOpts() Options {
	return Options{Scale: 400, Seed: 3, OSDCounts: []int{8}, Traces: []string{"home02"}}
}

func TestMatrixSpecsMatchMatrixOrder(t *testing.T) {
	opts := Options{Scale: 50, Seed: 7} // defaults: 7 traces × {16,20} × 4 policies
	specs := MatrixSpecs(opts)
	if want := 7 * 2 * 4; len(specs) != want {
		t.Fatalf("len(MatrixSpecs) = %d, want %d", len(specs), want)
	}
	// Matrix builds its cells from the same decomposition; verify the
	// coordinates line up slot for slot without running anything.
	opts = opts.withDefaults()
	i := 0
	for _, tr := range opts.Traces {
		for _, n := range opts.OSDCounts {
			for _, p := range AllPolicies {
				s := specs[i]
				if s.Trace != tr || s.OSDs != n || s.Policy != p {
					t.Fatalf("specs[%d] = %+v, want %s/%d/%s", i, s, tr, n, p)
				}
				if s.Scale != opts.Scale || s.Seed != opts.Seed || s.Lambda != opts.Lambda {
					t.Fatalf("specs[%d] lost options: %+v", i, s)
				}
				i++
			}
		}
	}
	keys := map[string]bool{}
	for _, s := range specs {
		if keys[s.Key()] {
			t.Fatalf("duplicate key %q", s.Key())
		}
		keys[s.Key()] = true
	}
}

func TestCellSpecJSONRoundTrip(t *testing.T) {
	for _, s := range MatrixSpecs(Options{Scale: 50, Seed: 9, Lambda: 0.2, Check: true}) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var got CellSpec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != s {
			t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v\njson: %s", s, got, b)
		}
		if got.Key() != s.Key() {
			t.Fatalf("round trip changed the key: %q vs %q", s.Key(), got.Key())
		}
	}
}

// TestCellSpecWireCasing pins the spec's JSON keys to the v1 wire
// casing of server.RunRequest (DESIGN §5): the trace field travels as
// "workload", matching the key edmd accepts, so a spec body and a run
// request body never disagree on a field's name.
func TestCellSpecWireCasing(t *testing.T) {
	b, err := json.Marshal(CellSpec{Trace: "home02", OSDs: 16, Policy: AllPolicies[0],
		Scale: 20, Seed: 3, Lambda: 0.1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"workload", "osds", "policy", "scale", "seed", "lambda", "check"}
	if len(keys) != len(want) {
		t.Errorf("encoded spec has %d keys (%s), want %d", len(keys), b, len(want))
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("encoded spec missing key %q: %s", k, b)
		}
	}
	if _, ok := keys["trace"]; ok {
		t.Errorf("legacy key \"trace\" still encoded: %s", b)
	}
}

// TestRunCellMatchesMatrix pins the distributed sweep's core
// guarantee: executing a decomposed cell spec (as the local fallback
// or a worker would, or as a bare edm.Run of CellSpec.Spec) reproduces
// the exact result the local Matrix harness computes for that slot.
func TestRunCellMatchesMatrix(t *testing.T) {
	opts := cellTestOpts()
	cells := Matrix(opts)
	specs := MatrixSpecs(opts)
	if len(cells) != len(specs) {
		t.Fatalf("matrix %d cells, %d specs", len(cells), len(specs))
	}
	for i, spec := range specs {
		if cells[i].Err != nil {
			t.Fatalf("matrix cell %s: %v", spec, cells[i].Err)
		}
		// Round-trip the spec through its wire encoding first: the
		// decoded spec must drive the identical run.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var decoded CellSpec
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		res, err := RunCell(context.Background(), decoded)
		if err != nil {
			t.Fatalf("RunCell(%s): %v", decoded, err)
		}
		if !reflect.DeepEqual(res, cells[i].Result) {
			t.Fatalf("RunCell(%s) diverged from the matrix cell", spec)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("RunCell(%s) result not byte-identical to matrix cell", spec)
		}
		// A bare edm.Run of the cell's spec — no trace memo, no
		// recycled scratch — is the same run too.
		direct, err := edm.Run(context.Background(), spec.Spec())
		if err != nil {
			t.Fatalf("edm.Run(%s): %v", spec, err)
		}
		if got, err = json.Marshal(direct); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("edm.Run(%s.Spec()) result not byte-identical to matrix cell", spec)
		}
	}
}

func TestCellAssemblesMatrixSlice(t *testing.T) {
	opts := cellTestOpts()
	specs := MatrixSpecs(opts)
	cells := Matrix(opts)
	for i, s := range specs {
		rebuilt := s.Cell(cells[i].Result, cells[i].Err)
		if !reflect.DeepEqual(rebuilt, cells[i]) {
			t.Fatalf("spec %s rebuilt cell differs: %+v vs %+v", s, rebuilt, cells[i])
		}
	}
	// The rebuilt slice renders the same figure tables.
	rebuilt := make([]Cell, len(specs))
	for i, s := range specs {
		rebuilt[i] = s.Cell(cells[i].Result, cells[i].Err)
	}
	if got, want := Fig5(opts, rebuilt).Format(), Fig5(opts, cells).Format(); got != want {
		t.Fatalf("fig5 from rebuilt cells differs:\n%s\nvs\n%s", got, want)
	}
}
