package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"edm"
	"edm/internal/cluster"
)

// CellSpec is the serializable description of one matrix cell: the unit
// of work a distributed sweep ships to an edmd worker. Two specs with
// equal fields drive byte-identical simulations wherever they execute —
// every field that influences the run is here, and nothing else is.
//
// The JSON encoding is stable (Policy marshals by name via
// encoding.TextMarshaler), so decode(encode(spec)) is the identity and
// a spec can cross the wire without changing the run it describes.
// Field names follow the v1 wire casing of server.RunRequest
// (DESIGN §5): the trace is "workload" on the wire, and the remaining
// keys are the same lower-snake names the worker accepts.
type CellSpec struct {
	Trace  string  `json:"workload"`
	OSDs   int     `json:"osds"`
	Policy Policy  `json:"policy"`
	Scale  int     `json:"scale"`
	Seed   uint64  `json:"seed"`
	Lambda float64 `json:"lambda"`
	Check  bool    `json:"check,omitempty"`
}

// MatrixSpecs decomposes the experiment matrix into cell specs, in the
// exact order Matrix runs (and figures render) them: trace-major, then
// cluster size, then policy. Matrix itself iterates this slice, so the
// decomposition cannot drift from the local harness.
func MatrixSpecs(opts Options) []CellSpec {
	opts = opts.withDefaults()
	specs := make([]CellSpec, 0, len(opts.Traces)*len(opts.OSDCounts)*len(AllPolicies))
	for _, tr := range opts.Traces {
		for _, n := range opts.OSDCounts {
			for _, p := range AllPolicies {
				specs = append(specs, opts.cell(tr, n, p))
			}
		}
	}
	return specs
}

// cell is the spec of one (trace, cluster size, policy) run under
// defaulted opts. Every figure experiment describes its runs this way,
// so they all share the matrix's translation to edm.Spec.
func (o Options) cell(tr string, osds int, p Policy) CellSpec {
	return CellSpec{Trace: tr, OSDs: osds, Policy: p, Scale: o.Scale, Seed: o.Seed, Lambda: o.Lambda, Check: o.Check}
}

// Spec is the edm.Spec the cell runs: the one cell → spec translation,
// which an edmd worker reproduces through RequestForCell and
// RunRequest.Spec. Groups and ObjectsPerFile stay zero, so the cluster
// defaults both to the paper's 4; Check sets Cluster.SelfCheck, which
// runs the cell under the full invariant harness.
func (s CellSpec) Spec() edm.Spec {
	spec := edm.Spec{
		Workload: s.Trace,
		Scale:    s.Scale,
		OSDs:     s.OSDs,
		Policy:   s.Policy,
		Lambda:   s.Lambda,
		Seed:     s.Seed,
	}
	spec.Cluster.SelfCheck = s.Check
	return spec
}

// Key is the cell's deduplication identity: hedged or reassigned
// executions of the same spec share it, so a coordinator keeps exactly
// one result per key no matter how many times the cell ran.
func (s CellSpec) Key() string {
	var b strings.Builder
	b.WriteString(s.Trace)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(s.OSDs))
	b.WriteByte('/')
	b.WriteString(s.Policy.String())
	b.WriteString("/s")
	b.WriteString(strconv.Itoa(s.Scale))
	b.WriteString("/seed")
	b.WriteString(strconv.FormatUint(s.Seed, 10))
	b.WriteString("/l")
	b.WriteString(strconv.FormatFloat(s.Lambda, 'g', -1, 64))
	if s.Check {
		b.WriteString("/check")
	}
	return b.String()
}

// String labels the cell for logs and error messages.
func (s CellSpec) String() string {
	return fmt.Sprintf("%s/%d/%s", s.Trace, s.OSDs, s.Policy)
}

// RunCell executes one cell locally. The result is byte-identical to
// the same cell's slot in Matrix under equivalent Options — RunCell is
// both the coordinator's graceful-degradation path and the reference
// a remote execution must reproduce.
func RunCell(ctx context.Context, s CellSpec) (*cluster.Result, error) {
	spec := s.Spec()
	return run(Options{Context: ctx}, runLabel("cell", spec), spec)
}

// Cell packages an execution outcome as the figure-table cell for this
// spec, letting a coordinator reassemble Matrix-shaped slices from
// remotely produced results.
func (s CellSpec) Cell(res *cluster.Result, err error) Cell {
	return Cell{Trace: s.Trace, OSDs: s.OSDs, Policy: s.Policy, Result: res, Err: err}
}
