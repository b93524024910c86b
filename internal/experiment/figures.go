package experiment

import (
	"fmt"
	"strings"

	"edm/internal/sim"
	"edm/internal/trace"
)

// ---------------------------------------------------------------------
// Table I — workload characteristics.

// Table1Row is one workload's generated characteristics next to the
// paper's published values.
type Table1Row struct {
	Workload    string
	FileCount   int
	WriteCount  int
	AvgWrite    int64
	ReadCount   int
	AvgRead     int64
	PaperAvgWr  int64
	PaperAvgRd  int64
	TotalSizeMB int64
}

// Table1Result reproduces Table I from the generators.
type Table1Result struct {
	Scale int
	Rows  []Table1Row
}

// Table1 generates every built-in workload and reports its measured
// characteristics (at the experiment scale).
func Table1(opts Options) (*Table1Result, error) {
	opts = opts.withDefaults()
	res := &Table1Result{Scale: opts.Scale}
	for _, name := range trace.ProfileNames() {
		p, _ := trace.LookupProfile(name)
		tr, err := trace.Generate(p.Scaled(opts.Scale), opts.Seed)
		if err != nil {
			return nil, err
		}
		st := tr.Stats()
		res.Rows = append(res.Rows, Table1Row{
			Workload:    name,
			FileCount:   st.FileCount,
			WriteCount:  st.WriteCount,
			AvgWrite:    st.AvgWriteSize,
			ReadCount:   st.ReadCount,
			AvgRead:     st.AvgReadSize,
			PaperAvgWr:  p.AvgWriteSize,
			PaperAvgRd:  p.AvgReadSize,
			TotalSizeMB: st.TotalBytes >> 20,
		})
	}
	return res, nil
}

// Format renders the table.
func (r *Table1Result) Format() string {
	t := &table{header: []string{
		"workload", "files", "writes", "avg-wr(B)", "paper", "reads", "avg-rd(B)", "paper", "data(MB)",
	}}
	for _, row := range r.Rows {
		t.add(row.Workload,
			fmt.Sprint(row.FileCount), fmt.Sprint(row.WriteCount),
			fmt.Sprint(row.AvgWrite), fmt.Sprint(row.PaperAvgWr),
			fmt.Sprint(row.ReadCount),
			fmt.Sprint(row.AvgRead), fmt.Sprint(row.PaperAvgRd),
			fmt.Sprint(row.TotalSizeMB))
	}
	return fmt.Sprintf("Table I — workload characteristics (scale 1/%d)\n%s", r.Scale, t)
}

// ---------------------------------------------------------------------
// Fig. 1 — wear variance across SSDs under the baseline.

// Fig1Series is one trace's per-OSD wear profile.
type Fig1Series struct {
	Trace       string
	EraseCounts []uint64
	WritePages  []uint64
	EraseRSD    float64
	WriteRSD    float64
}

// Fig1Result reproduces the wear-variance motivation: per-SSD erase
// counts (a) and write pages (b) when replaying on the baseline.
type Fig1Result struct {
	OSDs   int
	Series []Fig1Series
}

// Fig1 replays home02, deasna and lair62 on the baseline cluster.
func Fig1(opts Options) (*Fig1Result, error) {
	opts = opts.withDefaults()
	opts.expLabel = "fig1"
	traces := []string{"home02", "deasna", "lair62"}
	res := &Fig1Result{OSDs: 8, Series: make([]Fig1Series, len(traces))}
	jobs := make([]func(), len(traces))
	errs := make([]error, len(traces))
	for i, name := range traces {
		i, name := i, name
		jobs[i] = func() {
			spec := opts.cell(name, res.OSDs, Baseline).Spec()
			out, err := run(opts, runLabel(opts.expLabel, spec), spec)
			if err != nil {
				errs[i] = err
				return
			}
			res.Series[i] = Fig1Series{
				Trace:       name,
				EraseCounts: out.EraseCounts,
				WritePages:  out.WritePages,
				EraseRSD:    rsdOf(out.EraseCounts),
				WriteRSD:    rsdOf(out.WritePages),
			}
		}
	}
	pool(opts.Parallelism, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders both panels.
func (r *Fig1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — wear variance across %d SSDs (baseline, no migration)\n", r.OSDs)
	t := &table{header: []string{"trace", "panel", "OSD0", "OSD1", "OSD2", "OSD3", "OSD4", "OSD5", "OSD6", "OSD7", "RSD"}}
	for _, s := range r.Series {
		er := make([]string, len(s.EraseCounts))
		wr := make([]string, len(s.WritePages))
		for i := range s.EraseCounts {
			er[i] = fmt.Sprint(s.EraseCounts[i])
			wr[i] = fmt.Sprint(s.WritePages[i])
		}
		t.add(append(append([]string{s.Trace, "erases"}, er...), fmt.Sprintf("%.3f", s.EraseRSD))...)
		t.add(append(append([]string{s.Trace, "writes"}, wr...), fmt.Sprintf("%.3f", s.WriteRSD))...)
	}
	b.WriteString(t.String())
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 5 — aggregate throughput.

// Fig5Result projects the matrix onto throughput.
type Fig5Result struct {
	Opts  Options
	Cells []Cell
}

// Fig5 runs (or reuses) the matrix.
func Fig5(opts Options, cells []Cell) *Fig5Result {
	opts = opts.withDefaults()
	if cells == nil {
		cells = Matrix(opts)
	}
	return &Fig5Result{Opts: opts, Cells: cells}
}

// Format renders one panel per cluster size, matching Fig. 5(a)/(b).
func (r *Fig5Result) Format() string {
	var b strings.Builder
	for _, n := range r.Opts.OSDCounts {
		fmt.Fprintf(&b, "Fig. 5 — aggregate throughput (ops/s), %d OSDs\n", n)
		t := &table{header: []string{"trace", "baseline", "CMT", "EDM-HDF", "EDM-CDF", "HDF vs base", "CDF vs base"}}
		for _, tr := range r.Opts.Traces {
			row := []string{tr}
			base := 0.0
			for _, p := range AllPolicies {
				c := FindCell(r.Cells, tr, n, p)
				if c == nil || c.Err != nil {
					row = append(row, "ERR")
					continue
				}
				v := c.Result.ThroughputOps
				if p == Baseline {
					base = v
				}
				row = append(row, fmt.Sprintf("%.0f", v))
			}
			for _, p := range []Policy{HDF, CDF} {
				c := FindCell(r.Cells, tr, n, p)
				if c == nil || c.Err != nil || base == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%+.1f%%", 100*(c.Result.ThroughputOps/base-1)))
			}
			t.add(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 6 — cluster-wide aggregate erase count.

// Fig6Result projects the matrix onto aggregate erases.
type Fig6Result struct {
	Opts  Options
	Cells []Cell
}

// Fig6 runs (or reuses) the matrix.
func Fig6(opts Options, cells []Cell) *Fig6Result {
	opts = opts.withDefaults()
	if cells == nil {
		cells = Matrix(opts)
	}
	return &Fig6Result{Opts: opts, Cells: cells}
}

// Format renders the erase counts with the difference vs baseline that
// the paper annotates above each bar.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	for _, n := range r.Opts.OSDCounts {
		fmt.Fprintf(&b, "Fig. 6 — aggregate erase count, %d OSDs (%% = vs baseline)\n", n)
		t := &table{header: []string{"trace", "baseline", "CMT", "EDM-HDF", "EDM-CDF", "HDF vs CMT"}}
		for _, tr := range r.Opts.Traces {
			row := []string{tr}
			var base, cmt, hdf float64
			for _, p := range AllPolicies {
				c := FindCell(r.Cells, tr, n, p)
				if c == nil || c.Err != nil {
					row = append(row, "ERR")
					continue
				}
				v := float64(c.Result.AggregateErases)
				switch p {
				case Baseline:
					base = v
					row = append(row, fmt.Sprintf("%.0f", v))
				default:
					if p == CMT {
						cmt = v
					}
					if p == HDF {
						hdf = v
					}
					row = append(row, fmt.Sprintf("%.0f (%+.1f%%)", v, 100*(v/base-1)))
				}
			}
			if cmt > 0 {
				row = append(row, fmt.Sprintf("%+.1f%%", 100*(hdf/cmt-1)))
			} else {
				row = append(row, "-")
			}
			t.add(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 7 — mean response time during migration.

// Fig7Series is one (trace, policy) response-time timeline.
type Fig7Series struct {
	Trace  string
	Policy Policy
	Points []TimedPoint
	// MigrationStart/End in seconds of virtual time.
	MigrationStart float64
	MigrationEnd   float64
}

// TimedPoint is one 3-minute bucket.
type TimedPoint struct {
	TimeSec float64
	MeanSec float64
	Count   int64
}

// Fig7Result reproduces the response-time timelines.
type Fig7Result struct {
	OSDs   int
	Series []Fig7Series
}

// Fig7 replays home02, deasna and lair62 under baseline, HDF and CDF.
func Fig7(opts Options) (*Fig7Result, error) {
	opts = opts.withDefaults()
	opts.expLabel = "fig7"
	traces := []string{"home02", "deasna", "lair62"}
	policies := []Policy{Baseline, HDF, CDF}
	res := &Fig7Result{OSDs: 16}
	type slot struct {
		s   Fig7Series
		err error
	}
	slots := make([]slot, len(traces)*len(policies))
	var jobs []func()
	idx := 0
	for _, tr := range traces {
		for _, p := range policies {
			i, tr, p := idx, tr, p
			idx++
			jobs = append(jobs, func() {
				// The paper buckets by 3 real minutes over a multi-hour
				// replay (~1/150 of the run); the scaled replay gets a
				// proportionally fine bucket.
				spec := opts.cell(tr, res.OSDs, p).Spec()
				spec.Cluster.ResponseBucket = sim.Second / 2
				out, err := run(opts, runLabel(opts.expLabel, spec), spec)
				if err != nil {
					slots[i].err = err
					return
				}
				s := Fig7Series{
					Trace:          tr,
					Policy:         p,
					MigrationStart: out.MigrationStart.Seconds(),
					MigrationEnd:   out.MigrationEnd.Seconds(),
				}
				for _, pt := range out.ResponseSeries {
					s.Points = append(s.Points, TimedPoint{TimeSec: pt.Time, MeanSec: pt.Mean, Count: pt.Count})
				}
				slots[i].s = s
			})
		}
	}
	pool(opts.Parallelism, jobs)
	for _, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		res.Series = append(res.Series, sl.s)
	}
	return res, nil
}

// Format renders one timeline block per trace.
func (r *Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — mean response time during migration, %d OSDs (per bucket, ms)\n", r.OSDs)
	byTrace := map[string][]Fig7Series{}
	for _, s := range r.Series {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, tr := range sortedKeys(byTrace) {
		fmt.Fprintf(&b, "\n%s:\n", tr)
		set := byTrace[tr]
		maxLen := 0
		for _, s := range set {
			if len(s.Points) > maxLen {
				maxLen = len(s.Points)
			}
		}
		header := []string{"t(s)"}
		for _, s := range set {
			header = append(header, s.Policy.String())
		}
		t := &table{header: header}
		for i := 0; i < maxLen; i++ {
			row := make([]string, 0, len(set)+1)
			stamp := "-"
			for _, s := range set {
				if i < len(s.Points) {
					stamp = fmt.Sprintf("%.1f", s.Points[i].TimeSec)
					break
				}
			}
			row = append(row, stamp)
			for _, s := range set {
				if i < len(s.Points) {
					row = append(row, fmt.Sprintf("%.3f", s.Points[i].MeanSec*1000))
				} else {
					row = append(row, "-")
				}
			}
			t.add(row...)
		}
		b.WriteString(t.String())
		for _, s := range set {
			if s.Policy != Baseline {
				fmt.Fprintf(&b, "%s migration window: %.1fs – %.1fs\n", s.Policy, s.MigrationStart, s.MigrationEnd)
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 8 — total moved objects.

// Fig8Result projects the matrix onto migration volume.
type Fig8Result struct {
	Opts  Options
	Cells []Cell
	OSDs  int
}

// Fig8 runs (or reuses) the matrix; the paper presents a single panel,
// we use the first configured cluster size.
func Fig8(opts Options, cells []Cell) *Fig8Result {
	opts = opts.withDefaults()
	if cells == nil {
		cells = Matrix(opts)
	}
	return &Fig8Result{Opts: opts, Cells: cells, OSDs: opts.OSDCounts[0]}
}

// Format renders moved-object counts and the percentage of all objects,
// the numbers annotated above Fig. 8's bars.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — total moved objects, %d OSDs (%% of all objects)\n", r.OSDs)
	t := &table{header: []string{"trace", "objects", "CMT", "EDM-HDF", "EDM-CDF", "remap peak (CMT/HDF/CDF)"}}
	for _, tr := range r.Opts.Traces {
		p, ok := trace.LookupProfile(tr)
		if !ok {
			continue
		}
		totalObjects := p.Scaled(r.Opts.Scale).FileCount * 4
		row := []string{tr, fmt.Sprint(totalObjects)}
		var peaks []string
		for _, pol := range []Policy{CMT, HDF, CDF} {
			c := FindCell(r.Cells, tr, r.OSDs, pol)
			if c == nil || c.Err != nil {
				row = append(row, "ERR")
				peaks = append(peaks, "?")
				continue
			}
			moved := c.Result.MovedObjects
			row = append(row, fmt.Sprintf("%d (%.2f%%)", moved, 100*float64(moved)/float64(totalObjects)))
			peaks = append(peaks, fmt.Sprint(c.Result.RemapPeak))
		}
		row = append(row, strings.Join(peaks, "/"))
		t.add(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
