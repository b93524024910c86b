package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"edm"
	"edm/internal/experiment"
)

// digests.json holds, for every spec the benchmark can run, the
// edm.Result JSON digest and the trace's record count, produced once
// under edm.WithCheck by `edmperf -gen-digests`.
//
//go:embed digests.json
var digestsJSON []byte

type digestEntry struct {
	Digest  string `json:"digest"`
	Records int    `json:"records"`
}

type digestTable map[string]digestEntry

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// resultDigest is the first 64 bits of SHA-256 over the result's JSON.
func resultDigest(res *edm.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// specOf is the edm.Spec equivalent of a cell: the spec a local
// experiment.RunCell, an edmd job and edm.Run all replay identically.
func specOf(c experiment.CellSpec) edm.Spec {
	return edm.Spec{
		Workload: c.Trace, Scale: c.Scale, OSDs: c.OSDs, Groups: 4, ObjectsPerFile: 4,
		Policy: c.Policy, Seed: c.Seed, Lambda: c.Lambda,
	}
}

// reference runs a cell under full invariant checking and returns its
// digest entry.
func reference(ctx context.Context, c experiment.CellSpec) (digestEntry, error) {
	spec := specOf(c)
	tr, err := edm.BuildTrace(spec)
	if err != nil {
		return digestEntry{}, err
	}
	res, err := edm.Run(ctx, spec, edm.WithCheck())
	if err != nil {
		return digestEntry{}, fmt.Errorf("%s: checked run: %w", c.Key(), err)
	}
	if res.Rejected != 0 || res.LostOps != 0 {
		return digestEntry{}, fmt.Errorf("%s: checked run rejected %d and lost %d operations", c.Key(), res.Rejected, res.LostOps)
	}
	d, err := resultDigest(res)
	if err != nil {
		return digestEntry{}, err
	}
	return digestEntry{Digest: d, Records: len(tr.Records)}, nil
}

// checker verifies results against the stored digests. A spec with no
// stored digest gets one from an untimed checked pass (counted in
// computed, its time in refTime so set-up can exclude it); callers run
// checks outside their timers.
type checker struct {
	mu       sync.Mutex
	table    digestTable
	computed int
	refTime  time.Duration
}

// check verifies one result: every operation completed, none were
// rejected or lost, and the result JSON digest is the stored one.
func (c *checker) check(ctx context.Context, cell experiment.CellSpec, res *edm.Result) error {
	if res == nil {
		return fmt.Errorf("%s: no result", cell.Key())
	}
	key := cell.Key()
	c.mu.Lock()
	want, ok := c.table[key]
	c.mu.Unlock()
	if !ok {
		t0 := time.Now()
		var err error
		if want, err = reference(ctx, cell); err != nil {
			return err
		}
		c.mu.Lock()
		c.table[key] = want
		c.computed++
		c.refTime += time.Since(t0)
		c.mu.Unlock()
	}
	if res.Completed != want.Records {
		return fmt.Errorf("%s: completed %d of %d operations", key, res.Completed, want.Records)
	}
	if res.Rejected != 0 || res.LostOps != 0 {
		return fmt.Errorf("%s: %d rejected, %d lost operations", key, res.Rejected, res.LostOps)
	}
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	if got != want.Digest {
		return fmt.Errorf("%s: result digest %s, stored %s", key, got, want.Digest)
	}
	return nil
}

// refSpent is the time spent so far on checked reference passes.
func (c *checker) refSpent() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refTime
}
