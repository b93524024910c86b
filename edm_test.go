package edm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"edm/internal/cluster"
	"edm/internal/migration"
	"edm/internal/trace"
)

func quickSpec(p Policy) Spec {
	return Spec{
		Workload: "home02",
		OSDs:     16,
		Policy:   p,
		Scale:    400,
		Seed:     3,
		Cluster:  cluster.Config{WarmupDisabled: true},
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyBaseline: "baseline",
		PolicyCMT:      "CMT",
		PolicyHDF:      "EDM-HDF",
		PolicyCDF:      "EDM-CDF",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%v != %s", p, s)
		}
	}
	if len(AllPolicies()) != 4 {
		t.Fatal("AllPolicies should list the paper's four systems")
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range AllPolicies() {
		res, err := Run(context.Background(), quickSpec(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Policy != p.String() {
			t.Fatalf("policy label %q for %v", res.Policy, p)
		}
		if res.Completed == 0 || res.ThroughputOps <= 0 {
			t.Fatalf("%v: degenerate result %+v", p, res)
		}
		if p == PolicyBaseline && res.MovedObjects != 0 {
			t.Fatalf("baseline moved objects")
		}
	}
}

func TestBuildTraceNamedWorkloads(t *testing.T) {
	for _, name := range append(trace.ProfileNames(), "random") {
		tr, err := BuildTrace(Spec{Workload: name, Scale: 400, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
	}
}

func TestBuildTraceUnknownWorkload(t *testing.T) {
	if _, err := BuildTrace(Spec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestBuildTraceExplicitTraceWins(t *testing.T) {
	custom := &trace.Trace{Name: "custom"}
	tr, err := BuildTrace(Spec{Workload: "home02", Trace: custom})
	if err != nil {
		t.Fatal(err)
	}
	if tr != custom {
		t.Fatal("explicit trace should be returned verbatim")
	}
}

func TestMigrationModeDefaults(t *testing.T) {
	if m := (Spec{Policy: PolicyBaseline}).migrationMode(); m != cluster.MigrateNever {
		t.Fatalf("baseline default mode %v", m)
	}
	if m := (Spec{Policy: PolicyHDF}).migrationMode(); m != cluster.MigrateMidpoint {
		t.Fatalf("HDF default mode %v", m)
	}
	never := cluster.MigrateNever
	s := Spec{Policy: PolicyHDF, MigrationMode: &never}
	if m := s.migrationMode(); m != cluster.MigrateNever {
		t.Fatalf("explicit never overridden: %v", m)
	}
	periodic := cluster.MigratePeriodic
	s = Spec{Policy: PolicyBaseline, MigrationMode: &periodic}
	if m := s.migrationMode(); m != cluster.MigratePeriodic {
		t.Fatalf("explicit periodic overridden: %v", m)
	}
}

func TestPlannerConstruction(t *testing.T) {
	cases := map[Policy]string{
		PolicyCMT: "CMT",
		PolicyHDF: "EDM-HDF",
		PolicyCDF: "EDM-CDF",
	}
	for p, name := range cases {
		pl := (Spec{Policy: p}).planner()
		if pl == nil || pl.Name() != name {
			t.Fatalf("planner for %v: %v", p, pl)
		}
	}
	if (Spec{Policy: PolicyBaseline}).planner() != nil {
		t.Fatal("baseline should have no planner")
	}
}

func TestLambdaPropagates(t *testing.T) {
	pl := (Spec{Policy: PolicyHDF, Lambda: 0.42}).planner()
	hdf, ok := pl.(*migration.HDF)
	if !ok {
		t.Fatalf("planner type %T", pl)
	}
	if hdf.Cfg.Lambda != 0.42 {
		t.Fatalf("lambda %v", hdf.Cfg.Lambda)
	}
}

func TestMigrationConfigOverride(t *testing.T) {
	mcfg := migration.DefaultConfig()
	mcfg.ColdFraction = 0.9
	pl := (Spec{Policy: PolicyCDF, MigrationConfig: &mcfg}).planner()
	cdf, ok := pl.(*migration.CDF)
	if !ok {
		t.Fatalf("planner type %T", pl)
	}
	if cdf.Cfg.ColdFraction != 0.9 {
		t.Fatalf("cold fraction %v", cdf.Cfg.ColdFraction)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(context.Background(), quickSpec(PolicyHDF))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), quickSpec(PolicyHDF))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.AggregateErases != b.AggregateErases || a.MovedObjects != b.MovedObjects {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSpecClusterOverridesWin(t *testing.T) {
	spec := quickSpec(PolicyBaseline)
	spec.Cluster.OSDs = 8
	spec.OSDs = 16
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.OSDs != 8 {
		t.Fatalf("cluster override ignored: %d OSDs", res.OSDs)
	}
}

// TestSpecValidate: Validate rejects exactly what NewCluster would,
// without generating a trace — unknown workloads (unless an explicit
// trace replaces the name) and cluster shapes the placement layout or
// RAID geometry cannot build.
func TestSpecValidate(t *testing.T) {
	tr, err := BuildTrace(quickSpec(PolicyBaseline))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   error
	}{
		{"valid", func(*Spec) {}, nil},
		{"random workload", func(s *Spec) { s.Workload = "random" }, nil},
		{"unknown workload", func(s *Spec) { s.Workload = "nope" }, ErrUnknownWorkload},
		{"explicit trace ignores name", func(s *Spec) { s.Workload, s.Trace = "nope", tr }, nil},
		{"osds not divisible by groups", func(s *Spec) { s.OSDs = 17 }, cluster.ErrInvalidConfig},
		{"groups not dividing osds", func(s *Spec) { s.Groups = 5 }, cluster.ErrInvalidConfig},
		{"objects per file above groups", func(s *Spec) { s.ObjectsPerFile = 9 }, cluster.ErrInvalidConfig},
		{"stripe too narrow for parity", func(s *Spec) { s.Groups, s.ObjectsPerFile = 2, 2 }, cluster.ErrInvalidConfig},
		{"negative osds", func(s *Spec) { s.OSDs = -4 }, cluster.ErrInvalidConfig},
		{"cluster override wins", func(s *Spec) { s.OSDs, s.Cluster.OSDs = 17, 16 }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := quickSpec(PolicyHDF)
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want wrapping %v", err, tc.want)
			}
			if _, err := NewCluster(spec); !errors.Is(err, tc.want) {
				t.Fatalf("NewCluster accepted a spec Validate rejects: %v", err)
			}
		})
	}
}

// TestRunRefillsDonatedScratch: a Scratch donated through
// Spec.Cluster.Scratch comes back holding the run's grown buffers, and
// a run that reuses it gives the same result as a fresh one.
func TestRunRefillsDonatedScratch(t *testing.T) {
	spec := quickSpec(PolicyHDF)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	scr := &cluster.Scratch{}
	spec.Cluster.Scratch = scr
	for i := 0; i < 2; i++ {
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(*scr).IsZero() {
			t.Fatalf("run %d left the donated scratch empty", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d with a recycled scratch diverged", i)
		}
	}
}
