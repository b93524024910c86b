package main

import (
	"fmt"
	"math/rand"

	"edm/internal/experiment"
	"edm/internal/policy"
)

// A family is a fixed pool of spec seeds whose results have stored
// digests. Every timed unit draws a distinct seed from the pool in an
// order fixed by the workload seed, so the same workload seed always
// produces the same inputs and no two units of one run share a spec
// seed: the process-global trace memo in experiment (or any later memo
// in edm) cannot turn a repetition into a cache hit a CLI user never
// gets. Warm-up seeds lie below the pool and are never timed.
type family struct {
	name string
	base uint64 // first pooled seed; warm-up seeds are base-warmGap+i
	size int
}

const (
	warmGap = 10 // warm-up seeds sit at base-10, base-9, ...
	warmups = 3  // set-up repetitions per run; setup_s is their median
)

var (
	// runFamily backs replay and checkpoint: one paper-shaped run,
	// home02 under EDM-HDF on 16 OSDs with the midpoint migration.
	runFamily = family{name: "run", base: 1000, size: 128}
	// sweepFamily seeds the 56-cell Fig. 5/6/8 matrix.
	sweepFamily = family{name: "sweep", base: 2000, size: 64}
	// fleetFamily seeds the serve workload's batch sweeps.
	fleetFamily = family{name: "fleet", base: 3000, size: 128}
	// interactiveFamily seeds the serve workload's interactive jobs.
	interactiveFamily = family{name: "interactive", base: 4000, size: 480}
)

const (
	runScale         = 10  // replay/checkpoint: home02 at 1/10 of Table I
	sweepScale       = 80  // sweep: every matrix cell at 1/80
	fleetScale       = 100 // serve: batch cells
	interactiveScale = 100 // serve: interactive jobs, on the small deasna trace
	lambda           = 0.1 // the paper's trigger threshold
)

// seedPlan is the spec seeds one run uses: warm-up seeds for the
// untimed set-up repetitions, then the timed sequence.
type seedPlan struct {
	warm  []uint64
	timed []uint64
}

// planFor derives the seed plan of one family from the workload seed.
func planFor(f family, workloadSeed uint64) seedPlan {
	var p seedPlan
	for i := 0; i < warmups; i++ {
		p.warm = append(p.warm, f.base-warmGap+uint64(i))
	}
	rng := rand.New(rand.NewSource(int64(workloadSeed)))
	for _, j := range rng.Perm(f.size) {
		p.timed = append(p.timed, f.base+uint64(j))
	}
	return p
}

// validate rejects a plan in which a spec seed repeats, in particular
// one shared between the warm-up and a timed unit.
func (p seedPlan) validate() error {
	seen := make(map[uint64]string)
	for _, s := range p.warm {
		if prev, ok := seen[s]; ok {
			return fmt.Errorf("seed plan: spec seed %d used twice (%s and warm-up)", s, prev)
		}
		seen[s] = "warm-up"
	}
	for i, s := range p.timed {
		if prev, ok := seen[s]; ok {
			return fmt.Errorf("seed plan: spec seed %d of timed unit %d is also used by %s", s, i, prev)
		}
		seen[s] = fmt.Sprintf("timed unit %d", i)
	}
	return nil
}

// runCell is the replay/checkpoint spec for one seed, written as a
// cell so that every result the benchmark checks has one key format.
func runCell(seed uint64) experiment.CellSpec {
	return experiment.CellSpec{Trace: "home02", OSDs: 16, Policy: policy.HDF, Scale: runScale, Seed: seed, Lambda: lambda}
}

func sweepOptions(seed uint64, parallelism int) experiment.Options {
	return experiment.Options{Scale: sweepScale, Seed: seed, Parallelism: parallelism, Lambda: lambda}
}

// fleetCells is one serve-workload batch sweep: four traces × the four
// policies on 16 OSDs, sharing the sweep's seed like a matrix does.
// Sixteen cells put several interactive arrivals in every sweep, so a
// sweep's makespan averages over preemptions instead of hinging on
// whether one landed.
func fleetCells(seed uint64) []experiment.CellSpec {
	var out []experiment.CellSpec
	for _, tr := range []string{"home03", "lair62", "lair62b", "deasna2"} {
		for _, p := range policy.All() {
			out = append(out, experiment.CellSpec{Trace: tr, OSDs: 16, Policy: p, Scale: fleetScale, Seed: seed, Lambda: lambda})
		}
	}
	return out
}

func interactiveCell(seed uint64) experiment.CellSpec {
	return experiment.CellSpec{Trace: "deasna", OSDs: 16, Policy: policy.HDF, Scale: interactiveScale, Seed: seed, Lambda: lambda}
}
