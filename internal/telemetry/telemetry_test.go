package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"edm/internal/sim"
)

func TestParseClasses(t *testing.T) {
	cases := []struct {
		in      string
		want    Class
		wantErr bool
	}{
		{"", ClassAll, false},
		{"all", ClassAll, false},
		{"request", ClassRequest, false},
		{"request,migration", ClassRequest | ClassMigration, false},
		{" Queue , FLASH ", ClassQueue | ClassFlash, false},
		{"wait,failure", ClassWait | ClassFailure, false},
		{"bogus", 0, true},
		{"request,bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseClasses(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseClasses(%q): want error, got %v", c.in, got)
			} else if !strings.Contains(err.Error(), "valid:") {
				t.Errorf("ParseClasses(%q) error %q should list valid classes", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseClasses(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseClasses(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassRequest, ClassQueue | ClassWait, ClassAll} {
		got, err := ParseClasses(c.String())
		if err != nil {
			t.Fatalf("ParseClasses(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip of %v: got %v", c, got)
		}
	}
}

// allEvents emits one event of every kind to r, at distinct times.
func allEvents(r Recorder) {
	r.RequestStart(RequestStart{T: 1, User: 2, Op: "write", File: 3, Offset: 4, Size: 5})
	r.RequestComplete(RequestComplete{T: 10, Issued: 1, User: 2, Op: "write", File: 3, Blocked: true})
	r.QueueSample(QueueSample{T: 2, OSD: 1, Backlog: 300, Wait: 100})
	r.FlashWrite(FlashWrite{T: 3, OSD: 1, Obj: 7, Pages: 2})
	r.FlashErase(FlashErase{T: 4, OSD: 1, ValidRatio: 0.25, Moved: 8})
	r.MigrationTrigger(MigrationTrigger{T: 5, Policy: "EDM-HDF", RSD: 0.3, Lambda: 0.1, Fired: true, Sources: 2, Dests: 3})
	r.MigrationPlan(MigrationPlan{T: 5, Policy: "EDM-HDF", Round: 1, Moves: 4, Bytes: 1 << 20})
	r.ObjectMoveStart(ObjectMoveStart{T: 5, Obj: 7, Src: 1, Dst: 2, Bytes: 1 << 18, Locks: true})
	r.ObjectMoveCommit(ObjectMoveCommit{T: 8, Obj: 7, Src: 1, Dst: 2, Bytes: 1 << 18})
	r.MigrationRoundEnd(MigrationRoundEnd{T: 9, Round: 1, Moved: 4})
	r.WaitPark(WaitPark{T: 6, Obj: 7, User: 2})
	r.WaitResume(WaitResume{T: 8, Obj: 7, Resumed: 1})
	r.DeviceFailure(DeviceFailure{T: 11, OSD: 3})
	r.RebuildStart(RebuildStart{T: 12, OSD: 3, Objects: 9})
	r.RebuildObject(RebuildObject{T: 13, Obj: 20, From: 3, To: 4, Bytes: 4096})
	r.RebuildEnd(RebuildEnd{T: 14, OSD: 3, Rebuilt: 9})
}

const allEventCount = 16

func TestTracerRecordsEverything(t *testing.T) {
	tr := NewTracer(ClassAll)
	allEvents(tr)
	if tr.Len() != allEventCount {
		t.Fatalf("recorded %d events, want %d", tr.Len(), allEventCount)
	}
	// Every event exposes a kind, a time, and a class inside the mask.
	seen := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Kind() == "" {
			t.Errorf("%T has empty kind", ev)
		}
		if seen[ev.Kind()] {
			t.Errorf("kind %s emitted twice by allEvents", ev.Kind())
		}
		seen[ev.Kind()] = true
		if ev.EventClass() == 0 {
			t.Errorf("%T has no class", ev)
		}
	}
}

func TestTracerMaskFilters(t *testing.T) {
	tr := NewTracer(ClassMigration | ClassWait)
	allEvents(tr)
	for _, ev := range tr.Events() {
		if ev.EventClass()&(ClassMigration|ClassWait) == 0 {
			t.Errorf("event %s (class %v) leaked through the mask", ev.Kind(), ev.EventClass())
		}
	}
	if got := tr.CountKind("migration.trigger"); got != 1 {
		t.Errorf("CountKind(migration.trigger) = %d, want 1", got)
	}
	if got := tr.CountKind("request.start"); got != 0 {
		t.Errorf("request.start should be filtered, got %d", got)
	}
}

// TestNopRecorderZeroAllocs asserts that emitting through the no-op
// recorder — the enabled-interface, disabled-collection configuration —
// allocates nothing: typed methods never box their event structs.
func TestNopRecorderZeroAllocs(t *testing.T) {
	var r Recorder = Nop{}
	allocs := testing.AllocsPerRun(1000, func() { allEvents(r) })
	if allocs != 0 {
		t.Fatalf("Nop recorder allocated %.1f times per %d events, want 0", allocs, allEventCount)
	}
}

// TestNilRecorderZeroAllocs asserts the disabled hot-path pattern used
// throughout the simulator — a nil Recorder behind one nil-check —
// allocates nothing per event.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if r != nil {
			allEvents(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-guarded emission allocated %.1f times, want 0", allocs)
	}
}

func TestWriteNDJSONDeterministicAndParseable(t *testing.T) {
	mk := func() []byte {
		tr := NewTracer(ClassAll)
		allEvents(tr)
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical event logs serialized differently")
	}
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if len(lines) != allEventCount {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), allEventCount)
	}
	for _, line := range lines {
		var env struct {
			Kind string          `json:"kind"`
			T    int64           `json:"t"`
			Ev   json.RawMessage `json:"ev"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", line, err)
		}
		if env.Kind == "" || len(env.Ev) == 0 {
			t.Fatalf("line missing kind or ev: %s", line)
		}
	}
}

func TestRegistrySampling(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("ops")
	level := 0.0
	reg.Gauge("level", func(sim.Time) float64 { return level })
	reg.Gauge("now_s", func(now sim.Time) float64 { return now.Seconds() })

	eng := sim.New()
	reg.StartSampling(eng, sim.Second)
	eng.At(sim.Second/2, func(sim.Time) {
		ctr.Inc()
		ctr.Add(2)
		level = 7
	})
	eng.At(2*sim.Second+sim.Second/2, func(sim.Time) {
		reg.StopSampling()
	})
	eng.Run()

	wantNames := []string{"ops", "level", "now_s"}
	if got := strings.Join(reg.Names(), " "); got != strings.Join(wantNames, " ") {
		t.Fatalf("names = %v, want %v", reg.Names(), wantNames)
	}
	rows := reg.Rows()
	if len(rows) < 2 {
		t.Fatalf("got %d rows, want >= 2", len(rows))
	}
	r0 := rows[0]
	if r0.T != sim.Second {
		t.Errorf("first sample at %v, want 1s", r0.T)
	}
	if r0.Values[0] != 3 {
		t.Errorf("counter sampled %v, want 3", r0.Values[0])
	}
	if r0.Values[1] != 7 {
		t.Errorf("gauge sampled %v, want 7", r0.Values[1])
	}
	if r0.Values[2] != 1 {
		t.Errorf("time gauge sampled %v, want 1", r0.Values[2])
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric registration should panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x")
	reg.Counter("x")
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter delta should panic")
		}
	}()
	c := NewRegistry().Counter("c")
	c.Add(-1)
}

func TestWriteSnapshotsCSV(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("erases")
	c.Add(4)
	reg.Sample(sim.Second)
	c.Add(1)
	reg.Sample(3 * sim.Second)

	var buf bytes.Buffer
	if err := WriteSnapshotsCSV(&buf, reg); err != nil {
		t.Fatal(err)
	}
	want := "t_seconds,erases\n1,4\n3,5\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(ClassAll)
	allEvents(tr)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	var sawMove, sawPark bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		name, _ := ev["name"].(string)
		if ph == "X" && strings.HasPrefix(name, "move obj") {
			sawMove = true
			if dur, _ := ev["dur"].(float64); dur <= 0 {
				t.Errorf("move slice has non-positive duration: %v", ev)
			}
		}
		if ph == "X" && strings.HasPrefix(name, "park obj") {
			sawPark = true
		}
	}
	if !sawMove {
		t.Error("no migration move slice in chrome trace")
	}
	if !sawPark {
		t.Error("no HDF park slice in chrome trace")
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q-phase events in chrome trace (got %v)", ph, phases)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	mk := func() []byte {
		tr := NewTracer(ClassAll)
		allEvents(tr)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("chrome trace output is not deterministic")
	}
}
