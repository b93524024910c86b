package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"edm"
)

// SHA-256 digests of the non-matrix experiments' results under
// fastOpts (see checkDigest).
const (
	fig1Digest        = "94306ec3780d4d9441c3b8ad875869a70ccfd0c60225ee7f0c02cbbad9e5eb90"
	fig7Digest        = "cfc87bf12ab87cfe4b43fc5f16046aa0c682196a7651351048e7c1a06f820b5d"
	openLoopDigest    = "a560778b5a2464c8b2b17da3bd2fba0c0956d451db9c702e214383008e14db67"
	ablationsDigest   = "3b4b8884a1a966820bd8b5e11dc2907859784697d1b6627b4bc4c463d96ea410"
	reliabilityDigest = "ba2cd180ba8cded17b8f719bcdd23b74b105d1e59076c2c9c7c44a8a9ee602f9"
)

// fastOpts keeps experiment tests quick: deep scale, one cluster size,
// two traces.
func fastOpts() Options {
	return Options{
		Scale:     400,
		Seed:      5,
		OSDCounts: []int{16},
		Traces:    []string{"home02", "lair62"},
	}
}

// checkDigest pins an experiment's returned result: the SHA-256 of its
// JSON encoding must equal want. The constants were recorded from the
// hand-assembled cluster construction these experiments used before
// they ran through edm.Run, so any drift in the shared construction
// path shows up here.
func checkDigest(t *testing.T, res any, want string) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("result digest = %s, want %s", got, want)
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Format()
	for _, name := range []string{"home02", "deasna2", "lair62b"} {
		if !strings.Contains(out, name) {
			t.Fatalf("format missing %s:\n%s", name, out)
		}
	}
}

func TestMatrixAndProjections(t *testing.T) {
	opts := fastOpts()
	cells := Matrix(opts)
	if len(cells) != len(opts.Traces)*len(opts.OSDCounts)*len(AllPolicies) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s/%d/%s: %v", c.Trace, c.OSDs, c.Policy, c.Err)
		}
		if c.Result == nil || c.Result.Completed == 0 {
			t.Fatalf("%s/%d/%s: empty result", c.Trace, c.OSDs, c.Policy)
		}
	}
	if FindCell(cells, "home02", 16, HDF) == nil {
		t.Fatal("FindCell failed")
	}
	if FindCell(cells, "home02", 99, HDF) != nil {
		t.Fatal("FindCell returned a phantom cell")
	}

	for _, out := range []string{
		Fig5(opts, cells).Format(),
		Fig6(opts, cells).Format(),
		Fig8(opts, cells).Format(),
	} {
		if !strings.Contains(out, "home02") || !strings.Contains(out, "EDM-HDF") {
			t.Fatalf("projection format incomplete:\n%s", out)
		}
		if strings.Contains(out, "ERR") {
			t.Fatalf("projection reports errors:\n%s", out)
		}
	}
}

func TestMatrixDeterministic(t *testing.T) {
	opts := fastOpts()
	opts.Traces = []string{"home02"}
	a := Matrix(opts)
	b := Matrix(opts)
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if ra.Makespan != rb.Makespan || ra.AggregateErases != rb.AggregateErases {
			t.Fatalf("cell %d diverged despite identical options", i)
		}
	}
}

func TestFig1(t *testing.T) {
	res, err := Fig1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.EraseCounts) != res.OSDs || len(s.WritePages) != res.OSDs {
			t.Fatalf("%s: per-OSD lengths wrong", s.Trace)
		}
		var total uint64
		for _, e := range s.EraseCounts {
			total += e
		}
		if total == 0 {
			t.Fatalf("%s: no erases measured", s.Trace)
		}
	}
	if out := res.Format(); !strings.Contains(out, "RSD") {
		t.Fatalf("format:\n%s", out)
	}
	checkDigest(t, res, fig1Digest)
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 80 // fig3 needs enough volume per device
	res, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	var random, home *Fig3Series
	for i := range res.Series {
		switch res.Series[i].Trace {
		case "random":
			random = &res.Series[i]
		case "home02":
			home = &res.Series[i]
		}
	}
	if random == nil || home == nil {
		t.Fatal("missing series")
	}
	// The paper's two claims: the random workload matches Eq.(2); the
	// real workloads sit well below it (that is what σ corrects).
	for _, p := range random.Points {
		if p.Utilization >= 0.5 && p.Utilization <= 0.85 {
			if diff := abs(p.MeasuredUr - p.Eq2Ur); diff > 0.1 {
				t.Fatalf("random at u=%.2f: measured %v vs Eq2 %v", p.Utilization, p.MeasuredUr, p.Eq2Ur)
			}
		}
	}
	for _, p := range home.Points {
		if p.Utilization >= 0.6 && p.Utilization <= 0.85 {
			if p.MeasuredUr >= p.Eq2Ur {
				t.Fatalf("home02 at u=%.2f: measured %v not below Eq2 %v", p.Utilization, p.MeasuredUr, p.Eq2Ur)
			}
		}
	}
	if out := res.Format(); !strings.Contains(out, "Eq.(3)") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestFig7(t *testing.T) {
	res, err := Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 9 { // 3 traces × 3 policies
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s/%s: empty timeline", s.Trace, s.Policy)
		}
		// A migration policy may legitimately plan nothing on a tiny
		// scaled workload; when a round did fire, its window must be
		// well-formed.
		if s.Policy != Baseline && s.MigrationStart > 0 && s.MigrationEnd <= s.MigrationStart {
			t.Fatalf("%s/%s: malformed migration window", s.Trace, s.Policy)
		}
	}
	if out := res.Format(); !strings.Contains(out, "migration window") {
		t.Fatalf("format:\n%s", out)
	}
	checkDigest(t, res, fig7Digest)
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	opts := fastOpts()
	all := Ablations(opts)
	for _, res := range all {
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", res.Name)
		}
		for _, row := range res.Rows {
			if row.Err != nil {
				t.Fatalf("%s/%s: %v", res.Name, row.Label, row.Err)
			}
		}
		if out := res.Format(); !strings.Contains(out, "Ablation") {
			t.Fatalf("format:\n%s", out)
		}
	}
	checkDigest(t, all, ablationsDigest)
}

func TestBuildTraceErrors(t *testing.T) {
	if _, err := cachedTrace(edm.Spec{Workload: "bogus", Scale: 400}); err == nil {
		t.Fatal("unknown trace should fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "y")
	tb.add("wide-cell", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %q", out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

func TestAblationFTL(t *testing.T) {
	opts := fastOpts()
	opts.Scale = 80
	res := AblationFTL(opts)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Fatalf("%s: %v", row.Label, row.Err)
		}
		if row.WA < 1 || row.Ur < 0 || row.Erases == 0 {
			t.Fatalf("%s: degenerate %+v", row.Label, row)
		}
	}
	// The paper's FTL (row 0) must not beat the fully-refined FTL
	// (row 3) on write amplification for this skewed workload.
	if res.Rows[0].WA < res.Rows[3].WA {
		t.Fatalf("refinements should not hurt: %.3f vs %.3f", res.Rows[0].WA, res.Rows[3].WA)
	}
	if !strings.Contains(res.Format(), "cost-benefit") {
		t.Fatal("format missing rows")
	}
}

func TestAblationOpenLoop(t *testing.T) {
	opts := fastOpts()
	res, err := AblationOpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineOps <= 0 {
		t.Fatal("no baseline capacity")
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At the highest load, HDF must beat the baseline's mean response
	// time (the open-loop regime is where balancing pays most).
	var baseHigh, hdfHigh float64
	for _, row := range res.Rows {
		if row.LoadFraction == 0.95 {
			switch row.Policy {
			case Baseline:
				baseHigh = row.MeanRTms
			case HDF:
				hdfHigh = row.MeanRTms
			}
		}
	}
	if hdfHigh >= baseHigh {
		t.Fatalf("open-loop 95%%: HDF %.2fms vs baseline %.2fms", hdfHigh, baseHigh)
	}
	if !strings.Contains(res.Format(), "open-loop") {
		t.Fatal("format incomplete")
	}
	checkDigest(t, res, openLoopDigest)
}

// TestMatrixWithSelfCheck runs a small matrix cell set with Options.Check
// on: every simulation must pass the full invariant harness.
func TestMatrixWithSelfCheck(t *testing.T) {
	opts := fastOpts()
	opts.Traces = []string{"home02"}
	opts.Check = true
	for _, c := range Matrix(opts) {
		if c.Err != nil {
			t.Fatalf("%s/%d/%s failed under self-check: %v", c.Trace, c.OSDs, c.Policy, c.Err)
		}
	}
}
