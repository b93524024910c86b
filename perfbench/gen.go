package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"edm/internal/experiment"
)

// genCell is one spec to digest; viaRunCell marks the specs a workload
// runs through experiment (sweep) or an edmd worker (serve's batch
// cells), whose digests must also equal experiment.RunCell's.
type genCell struct {
	experiment.CellSpec
	viaRunCell bool
}

// allCells lists every spec any run of any workload can check: the
// warm-up seeds and the whole pool of each family.
func allCells(nproc int) []genCell {
	var cells []genCell
	each := func(f family, viaRunCell bool, fn func(seed uint64) []experiment.CellSpec) {
		p := planFor(f, 0)
		for _, s := range append(p.warm, p.timed...) {
			for _, c := range fn(s) {
				cells = append(cells, genCell{c, viaRunCell})
			}
		}
	}
	each(runFamily, false, func(s uint64) []experiment.CellSpec { return []experiment.CellSpec{runCell(s)} })
	each(sweepFamily, true, func(s uint64) []experiment.CellSpec { return experiment.MatrixSpecs(sweepOptions(s, nproc)) })
	each(fleetFamily, true, fleetCells)
	each(interactiveFamily, false, func(s uint64) []experiment.CellSpec { return []experiment.CellSpec{interactiveCell(s)} })
	return cells
}

// genDigests recomputes the stored digests: every cell under
// edm.WithCheck, cross-checked against experiment.RunCell (the
// reference a matrix or an edmd worker must reproduce) where a workload
// runs the cell that way. RunCell memoizes traces process-wide, so the
// large replay traces stay out of it.
func genDigests(ctx context.Context, path string, workers int) error {
	cells := allCells(workers)
	table := make(digestTable, len(cells))
	var mu sync.Mutex
	var firstErr error
	next := make(chan genCell)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				e, err := reference(ctx, c.CellSpec)
				if err == nil && c.viaRunCell {
					var d string
					res, rerr := experiment.RunCell(ctx, c.CellSpec)
					if rerr == nil {
						d, rerr = resultDigest(res)
					}
					if rerr == nil && d != e.Digest {
						rerr = fmt.Errorf("%s: RunCell digest %s, edm.Run digest %s", c.Key(), d, e.Digest)
					}
					err = rerr
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				table[c.Key()] = e
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: {\"digest\": %q, \"records\": %d}%s\n", k, table[k].Digest, table[k].Records, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
