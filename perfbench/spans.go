package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the index of the enclosing span (-1 for
// a root); Unit is the timed unit the span belongs to; Lane is the
// client or worker that made the call (a Chrome-trace thread).
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
	Unit   int
	Lane   int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the measured code
// paths carry no tracing branches beyond the nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	lanes map[int]string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), lanes: map[int]string{}}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, parent, unit, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Unit: unit, Lane: lane})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (server-side
// job timestamps) and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, unit, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Unit: unit, Lane: lane})
	return len(t.spans) - 1
}

// nameLane labels a lane in the Chrome-trace output.
func (t *tracer) nameLane(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds:
// each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.a < reach {
				v.a = reach
			}
			if v.b > v.a {
				covered += v.b - v.a
				reach = v.b
			}
		}
		out[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	return out
}

// chromeEvent is one Trace Event Format row, the format telemetry's
// trace.json uses, so the same viewers (chrome://tracing, Perfetto)
// open both.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

type spanArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Unit   int `json:"unit"`
}

// writeChrome writes the spans as a Chrome trace ({"traceEvents": ...,
// "displayTimeUnit": "ms"}), one thread per lane.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := make([]int, 0, len(t.lanes))
	for l := range t.lanes {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	var evs []chromeEvent
	for _, l := range lanes {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l,
			Args: struct {
				Name string `json:"name"`
			}{t.lanes[l]}})
	}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		cat := s.Name
		for j := 0; j < len(cat); j++ {
			if cat[j] == '.' {
				cat = cat[:j]
				break
			}
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane,
			Args: spanArgs{ID: i, Parent: s.Parent, Unit: s.Unit},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}
