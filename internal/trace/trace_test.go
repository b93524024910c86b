package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func small(t *testing.T) *Trace {
	t.Helper()
	p, ok := LookupProfile("home02")
	if !ok {
		t.Fatal("home02 missing")
	}
	tr, err := Generate(p.Scaled(100), 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestProfilesMatchTableOne(t *testing.T) {
	// The seven rows of Table I, verbatim.
	want := []struct {
		name          string
		files, wr, rd int
		avgWr, avgRd  int64
	}{
		{"home02", 10931, 730602, 3497486, 8048, 8191},
		{"home03", 8010, 355091, 2624676, 7938, 8190},
		{"home04", 7798, 358976, 2034078, 8013, 8192},
		{"deasna", 9727, 232481, 271619, 24167, 23869},
		{"deasna2", 8405, 269936, 372750, 18489, 20529},
		{"lair62", 19088, 740831, 890680, 5415, 7264},
		{"lair62b", 27228, 409215, 736469, 5496, 7612},
	}
	if len(ProfileNames()) != len(want) {
		t.Fatalf("profile count %d", len(ProfileNames()))
	}
	for _, w := range want {
		p, ok := LookupProfile(w.name)
		if !ok {
			t.Fatalf("missing profile %s", w.name)
		}
		if p.FileCount != w.files || p.WriteCount != w.wr || p.ReadCount != w.rd ||
			p.AvgWriteSize != w.avgWr || p.AvgReadSize != w.avgRd {
			t.Fatalf("%s does not match Table I: %+v", w.name, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", w.name, err)
		}
	}
}

func TestGenerateExactCounts(t *testing.T) {
	p, _ := LookupProfile("deasna")
	p = p.Scaled(50)
	tr, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.FileCount != p.FileCount {
		t.Fatalf("files %d want %d", st.FileCount, p.FileCount)
	}
	if st.WriteCount != p.WriteCount {
		t.Fatalf("writes %d want %d", st.WriteCount, p.WriteCount)
	}
	if st.ReadCount != p.ReadCount {
		t.Fatalf("reads %d want %d", st.ReadCount, p.ReadCount)
	}
}

func TestGenerateMeanSizesNearTableOne(t *testing.T) {
	for _, name := range []string{"home02", "deasna", "lair62"} {
		p, _ := LookupProfile(name)
		p = p.Scaled(20)
		tr, err := Generate(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		st := tr.Stats()
		if rel := math.Abs(float64(st.AvgWriteSize-p.AvgWriteSize)) / float64(p.AvgWriteSize); rel > 0.05 {
			t.Fatalf("%s avg write size %d vs %d (%.1f%%)", name, st.AvgWriteSize, p.AvgWriteSize, rel*100)
		}
		if rel := math.Abs(float64(st.AvgReadSize-p.AvgReadSize)) / float64(p.AvgReadSize); rel > 0.05 {
			t.Fatalf("%s avg read size %d vs %d (%.1f%%)", name, st.AvgReadSize, p.AvgReadSize, rel*100)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := LookupProfile("home03")
	p = p.Scaled(100)
	a, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c, err := Generate(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	n := len(a.Records)
	if len(c.Records) < n {
		n = len(c.Records)
	}
	for i := 0; i < n; i++ {
		if a.Records[i] == c.Records[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidates(t *testing.T) {
	tr := small(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpensAndClosesBracketRuns(t *testing.T) {
	tr := small(t)
	open := map[int32]FileID{}
	for i, r := range tr.Records {
		switch r.Kind {
		case OpOpen:
			open[r.User] = r.File
		case OpClose:
			if open[r.User] != r.File {
				t.Fatalf("record %d: close of %d but %d open", i, r.File, open[r.User])
			}
			delete(open, r.User)
		case OpRead, OpWrite:
			if f, ok := open[r.User]; !ok || f != r.File {
				t.Fatalf("record %d: data op on unopened file", i)
			}
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d files left open at trace end", len(open))
	}
}

func TestAccessSkew(t *testing.T) {
	tr := small(t)
	counts := map[FileID]int{}
	data := 0
	for _, r := range tr.Records {
		if r.Kind == OpRead || r.Kind == OpWrite {
			counts[r.File]++
			data++
		}
	}
	top := tr.TopFilesByOps(len(counts) / 10)
	topOps := 0
	for _, f := range top {
		topOps += counts[f]
	}
	// Zipf + locality: the top 10% of files should carry well over
	// double their fair share.
	if share := float64(topOps) / float64(data); share < 0.2 {
		t.Fatalf("top-decile share %.2f too uniform", share)
	}
}

func TestOffsetsWithinFileSize(t *testing.T) {
	tr := small(t)
	size := map[FileID]int64{}
	for _, f := range tr.Files {
		size[f.ID] = f.Size
	}
	for i, r := range tr.Records {
		if r.Kind != OpRead && r.Kind != OpWrite {
			continue
		}
		if r.Offset < 0 || r.Offset >= size[r.File] {
			t.Fatalf("record %d: offset %d outside file of %d bytes", i, r.Offset, size[r.File])
		}
	}
}

func TestScaled(t *testing.T) {
	p, _ := LookupProfile("home02")
	s := p.Scaled(10)
	if s.FileCount != p.FileCount/10 || s.WriteCount != p.WriteCount/10 || s.ReadCount != p.ReadCount/10 {
		t.Fatalf("scaled: %+v", s)
	}
	if s.ZipfOffset != p.ZipfOffset/10 {
		t.Fatalf("scaled Zipf offset: %v", s.ZipfOffset)
	}
	if same := p.Scaled(1); same.FileCount != p.FileCount {
		t.Fatal("Scaled(1) must be identity")
	}
	if s0 := p.Scaled(0); s0.FileCount != p.FileCount {
		t.Fatal("Scaled(0) must be identity")
	}
}

func TestRandomProfile(t *testing.T) {
	p := RandomProfile(100, 5000)
	tr, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.WriteCount != 5000 || st.ReadCount != 0 {
		t.Fatalf("random stats: %+v", st)
	}
	// Request sizes must span the paper's explicit 4–16KB range.
	for _, r := range tr.Records {
		if r.Kind == OpWrite && (r.Size < 4<<10 || r.Size > 16<<10) {
			t.Fatalf("random request size %d outside 4–16KB", r.Size)
		}
	}
	// Popularity must be near-uniform: top decile ≈ 10% of ops.
	counts := map[FileID]int{}
	for _, r := range tr.Records {
		if r.Kind == OpWrite {
			counts[r.File]++
		}
	}
	top := tr.TopFilesByOps(10)
	topOps := 0
	for _, f := range top {
		topOps += counts[f]
	}
	if share := float64(topOps) / float64(st.WriteCount); share > 0.2 {
		t.Fatalf("random workload too skewed: top-10 share %.2f", share)
	}
}

func TestProfileValidation(t *testing.T) {
	base, _ := LookupProfile("home02")
	mutate := []func(*Profile){
		func(p *Profile) { p.FileCount = 0 },
		func(p *Profile) { p.WriteCount, p.ReadCount = 0, 0 },
		func(p *Profile) { p.Users = 0 },
		func(p *Profile) { p.RepeatProb = 1 },
		func(p *Profile) { p.WriteSkew = 0 },
		func(p *Profile) { p.MeanFileSize = 0 },
		func(p *Profile) { p.ReadWriteAffinity = 1.5 },
		func(p *Profile) { p.HotFileSizeBoost = -1 },
	}
	for i, m := range mutate {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d should invalidate", i)
		}
		if _, err := Generate(p, 1); err == nil {
			t.Fatalf("Generate must reject mutation %d", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := small(t)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Users != tr.Users {
		t.Fatalf("header: %s/%d", got.Name, got.Users)
	}
	if len(got.Files) != len(tr.Files) || len(got.Records) != len(tr.Records) {
		t.Fatalf("lengths: %d/%d files, %d/%d records",
			len(got.Files), len(tr.Files), len(got.Records), len(tr.Records))
	}
	for i := range tr.Files {
		if got.Files[i] != tr.Files[i] {
			t.Fatalf("file %d differs", i)
		}
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []string{
		"",                                  // no header
		"trace t\n",                         // missing users
		"trace t users=x\n",                 // bad users
		"trace t users=1\nfile 1\n",         // short file line
		"trace t users=1\nfile a b\n",       // bad file fields
		"trace t users=1\nop 0 1 write 0\n", // short op line
		"trace t users=1\nop 0 1 wiggle 0 1\n",
		"trace t users=1\nbogus\n",
	}
	for i, s := range bad {
		if _, err := Decode(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d should fail: %q", i, s)
		}
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n\ntrace t users=2\n# files\nfile 1 100\nop 0 1 write 0 10\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Files) != 1 || len(tr.Records) != 1 {
		t.Fatalf("decoded: %+v", tr)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := &Trace{
		Name:  "x",
		Users: 1,
		Files: []FileInfo{{ID: 1, Size: 100}},
		Records: []Record{
			{User: 0, File: 2, Kind: OpWrite, Offset: 0, Size: 10},
		},
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("undeclared file should fail validation")
	}
	tr.Records[0].File = 1
	tr.Records[0].Offset = -1
	if err := tr.Validate(); err == nil {
		t.Fatal("negative offset should fail validation")
	}
	tr.Records[0].Offset = 0
	tr.Records[0].User = 5
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range user should fail validation")
	}
	tr.Files = append(tr.Files, FileInfo{ID: 1, Size: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("duplicate file should fail validation")
	}
}

// Property: encode/decode round-trips arbitrary record fields.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(users uint8, fileIDs []uint16, ops []uint32) bool {
		tr := &Trace{Name: "prop", Users: int(users) + 1}
		seen := map[FileID]bool{}
		for _, id := range fileIDs {
			if seen[FileID(id)] {
				continue
			}
			seen[FileID(id)] = true
			tr.Files = append(tr.Files, FileInfo{ID: FileID(id), Size: int64(id) * 7})
		}
		if len(tr.Files) == 0 {
			tr.Files = []FileInfo{{ID: 0, Size: 10}}
		}
		for _, op := range ops {
			f := tr.Files[int(op)%len(tr.Files)]
			tr.Records = append(tr.Records, Record{
				User:   int32(op % uint32(tr.Users)),
				File:   f.ID,
				Kind:   OpKind(op % 4),
				Offset: int64(op % 1000),
				Size:   int64(op%512) + 1,
			})
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	cases := map[OpKind]string{OpOpen: "open", OpClose: "close", OpRead: "read", OpWrite: "write"}
	for k, s := range cases {
		if k.String() != s {
			t.Fatalf("%v", k)
		}
		back, err := parseOpKind(s)
		if err != nil || back != k {
			t.Fatalf("parse %s: %v %v", s, back, err)
		}
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
	if _, err := parseOpKind("nope"); err == nil {
		t.Fatal("unknown kind should fail to parse")
	}
}

func TestHotFileSizeBoostCorrelatesSizeWithHeat(t *testing.T) {
	p, _ := LookupProfile("lair62")
	p = p.Scaled(50)
	tr, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed without the boost: base sizes are identical, so any
	// difference on the write-hot files is the boost.
	p2 := p
	p2.HotFileSizeBoost = 0
	tr2, err := Generate(p2, 11)
	if err != nil {
		t.Fatal(err)
	}
	writes := map[FileID]int{}
	for _, r := range tr.Records {
		if r.Kind == OpWrite {
			writes[r.File]++
		}
	}
	// Collect the 20 write-hottest files of the boosted trace.
	type fc struct {
		id FileID
		n  int
	}
	var hot []fc
	for id, n := range writes {
		hot = append(hot, fc{id, n})
	}
	for i := 0; i < len(hot); i++ {
		for j := i + 1; j < len(hot); j++ {
			if hot[j].n > hot[i].n {
				hot[i], hot[j] = hot[j], hot[i]
			}
		}
	}
	if len(hot) > 20 {
		hot = hot[:20]
	}
	sz := func(t_ *Trace, id FileID) int64 {
		for _, f := range t_.Files {
			if f.ID == id {
				return f.Size
			}
		}
		return 0
	}
	var boosted, base int64
	for _, h := range hot {
		boosted += sz(tr, h.id)
		base += sz(tr2, h.id)
	}
	if boosted <= base {
		t.Fatalf("boost had no effect on hot files: %d vs %d", boosted, base)
	}
}

// A replay reads the records of hundreds of streams interleaved, so
// each record's size sets how many fit a cache line; the field order
// of Record keeps it at 32 bytes (two per line) rather than the 40 an
// int32-first layout pads to.
func TestRecordIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 32 {
		t.Fatalf("sizeof(Record) = %d, want 32", got)
	}
}

// Generate sizes Records once from recordCapacity; a cap still equal to
// the estimate proves the slice never regrew (append would have
// replaced it with a larger one).
func TestGenerateNeverRegrowsRecords(t *testing.T) {
	for _, p := range Profiles() {
		for _, scale := range []int{10, 80, 100} {
			sp := p.Scaled(scale)
			for seed := uint64(1); seed <= 3; seed++ {
				tr, err := Generate(sp, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := cap(tr.Records), recordCapacity(sp); got != want {
					t.Errorf("%s/%d seed %d: cap %d, estimate %d (len %d)",
						p.Name, scale, seed, got, want, len(tr.Records))
				}
			}
		}
	}
	rp := RandomProfile(100, 5000)
	if tr, err := Generate(rp, 1); err != nil || cap(tr.Records) != len(tr.Records) {
		t.Fatalf("random profile: err %v, cap %d len %d (want exact)", err, cap(tr.Records), len(tr.Records))
	}
}
