package experiment

import (
	"strings"
	"testing"
)

func TestReliability(t *testing.T) {
	opts := fastOpts()
	res, err := Reliability(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 {
		t.Fatalf("policies = %d", len(res.Policies))
	}
	var base, hdf *ReliabilityRow
	for i := range res.Policies {
		row := &res.Policies[i]
		if row.FirstDeath <= 0 || row.LastDeath < row.FirstDeath {
			t.Fatalf("%s: degenerate horizons %+v", row.Policy, row)
		}
		switch row.Policy {
		case Baseline:
			base = row
		case HDF:
			hdf = row
		}
	}
	// The endurance headline: wear balancing extends the first death
	// and narrows the death spread.
	if hdf.FirstDeath <= base.FirstDeath {
		t.Fatalf("HDF should extend the first death: %v vs %v", hdf.FirstDeath, base.FirstDeath)
	}
	if hdf.LastDeath/hdf.FirstDeath >= base.LastDeath/base.FirstDeath {
		t.Fatalf("HDF should narrow the spread: %v vs %v",
			hdf.LastDeath/hdf.FirstDeath, base.LastDeath/base.FirstDeath)
	}

	// The §III.D structure: uniform groups are fully coincident,
	// staggered groups are not.
	if res.UniformRisk.RiskFraction() != 1 {
		t.Fatalf("uniform risk %v", res.UniformRisk.RiskFraction())
	}
	if res.StaggerRisk.RiskFraction() >= 0.5 {
		t.Fatalf("staggered risk %v", res.StaggerRisk.RiskFraction())
	}
	if res.DiffRAIDLoad <= 1.2 {
		t.Fatalf("Diff-RAID load imbalance %v", res.DiffRAIDLoad)
	}

	// The simulated staggering must show distinct group wear speeds:
	// the smallest group's devices wear fastest.
	if len(res.MeasuredGroupWear) != len(res.StaggerSizes) {
		t.Fatalf("group wear %v vs sizes %v", res.MeasuredGroupWear, res.StaggerSizes)
	}
	if res.MeasuredGroupWear[0] <= res.MeasuredGroupWear[len(res.MeasuredGroupWear)-1] {
		t.Fatalf("smallest group should wear fastest: %v (sizes %v)",
			res.MeasuredGroupWear, res.StaggerSizes)
	}

	out := res.Format()
	for _, want := range []string{"first death", "staggered groups", "Diff-RAID", "Simulated staggering"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	checkDigest(t, res, reliabilityDigest)
}
