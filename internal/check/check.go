// Package check is the simulator's invariant-checking and golden-shape
// regression harness.
//
// Two layers:
//
//   - A Checker (see Wrap) decorates any telemetry.Recorder and verifies
//     conservation laws online, event by event: timestamps never go
//     backwards, every request that starts completes exactly once with a
//     response no shorter than its service time, queue samples are
//     causal, GC valid ratios stay in [0,1) and relocate exactly the
//     pages the ratio implies, migration rounds are sequenced with
//     matching plan/commit accounting, and HDF wait lists park and
//     resume in balance. Audit then merges the event-level report with
//     the cluster's own end-of-run state audit (cluster.Audit) and
//     cross-checks the two views — e.g. erase events observed against
//     each SSD's erase counter.
//
//   - The golden shapes (see FigureShapes): DESIGN.md §3's "expected
//     shapes" as pure assertions over run results — Fig. 1's baseline
//     wear variance, Fig. 5's HDF throughput win, Fig. 6's HDF erase
//     reduction, Fig. 7's HDF blocking spike, and Fig. 8's
//     CMT > CDF ≥ HDF moved-object ordering. The suite that produces
//     those runs, checked, is experiment.Golden.
//
// edm.Run wires the checker and Audit into every run whose spec sets
// cluster.Config.SelfCheck (edm.WithCheck, experiment.Options.Check,
// edmd's "check", and the CLIs' -check); `edmbench -exp check` runs the
// golden suite.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// Violation is one broken invariant. Rule is a stable dotted identifier
// ("request.balance", "flash.erase.ratio", ...); Detail says what was
// observed.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// maxViolations bounds a report: a single broken law in a long run can
// otherwise fire on millions of events. The bound is applied in event
// order, so a truncated report is still deterministic.
const maxViolations = 64

// Report is the outcome of a checked run: how many events were examined
// and every violation found (empty means all invariants held).
type Report struct {
	Events     int
	Violations []Violation
	// Dropped counts violations beyond the maxViolations cap.
	Dropped int
}

func (r *Report) add(rule, format string, args ...any) {
	if len(r.Violations) >= maxViolations {
		r.Dropped++
		return
	}
	r.Violations = append(r.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// sorted orders violations by rule then detail so reports are
// reproducible regardless of audit iteration order.
func (r *Report) sorted() {
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Detail < b.Detail
	})
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, else an error naming the
// violated rules.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	rules := make([]string, 0, 4)
	seen := map[string]bool{}
	for _, v := range r.Violations {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			rules = append(rules, v.Rule)
		}
	}
	return fmt.Errorf("check: %d invariant violations (%s)", len(r.Violations)+r.Dropped,
		strings.Join(rules, ", "))
}

// String renders the full report, one line per violation.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked %d events: ", r.Events)
	if r.OK() {
		b.WriteString("all invariants hold")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violations", len(r.Violations)+r.Dropped)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Dropped)
	}
	return b.String()
}
