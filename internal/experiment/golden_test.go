package experiment

import (
	"errors"
	"testing"

	"edm/internal/check"
	"edm/internal/cluster"
)

// goldenTestOptions picks the suite size: the canonical reproduction
// cell in full mode, a reduced cluster in short mode.
func goldenTestOptions() Options {
	if testing.Short() {
		return Options{Scale: 40, Seed: 42, OSDCounts: []int{8}}
	}
	return Options{Scale: 20, Seed: 42, OSDCounts: []int{16}}
}

// TestGolden is the golden-shape regression suite: DESIGN.md §3's
// expected shapes asserted over checked, seeded runs.
func TestGolden(t *testing.T) {
	results := Golden(goldenTestOptions())
	if len(results) != 6 {
		t.Fatalf("expected 6 shapes, got %d:\n%s", len(results), check.FormatResults(results))
	}
	for _, s := range results {
		if s.Err != nil {
			t.Errorf("%s", s.String())
		} else {
			t.Logf("%s", s.String())
		}
	}
}

// TestGoldenSurfacesRunErrors pins that a run the suite cannot complete
// fails the invariants shape with the run's error, not a panic over a
// missing result.
func TestGoldenSurfacesRunErrors(t *testing.T) {
	results := Golden(Options{Scale: 40, Seed: 42, OSDCounts: []int{6}}) // 6 OSDs do not split into 4 groups
	f := check.FirstFailure(results)
	if f == nil || f.Name != "invariants" || !errors.Is(f.Err, cluster.ErrInvalidConfig) {
		t.Fatalf("unbuildable cluster not surfaced as an invariants failure: %v", results)
	}
}
