package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

func testSpec(seed uint64) engine.CampaignSpec {
	return engine.CampaignSpec{
		Backend:      "sim",
		Techniques:   []string{"FAC2"},
		Ns:           []int64{128},
		Ps:           []int{2},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 4,
		Seed:         seed,
	}
}

func jobRecord(id string, seed uint64, at time.Time) Record {
	spec := testSpec(seed)
	hash, _ := spec.Hash()
	return Record{Kind: KindJob, Time: at, ID: id, Tenant: "t1", Hash: hash, Spec: &spec}
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendReplayRoundTrip pins the basic durability contract: every
// appended record comes back, in order, from a fresh Open of the same
// directory.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	want := []Record{
		jobRecord("j1", 1, t0),
		{Kind: KindState, Time: t0.Add(time.Second), ID: "j1", State: "running"},
		{Kind: KindState, Time: t0.Add(2 * time.Second), ID: "j1", State: "done"},
		jobRecord("j2", 2, t0.Add(3*time.Second)),
		{Kind: KindState, Time: t0.Add(4 * time.Second), ID: "j2", State: "failed", Error: "boom"},
	}
	mustAppend(t, j, want...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID ||
			got[i].State != want[i].State || got[i].Error != want[i].Error ||
			!got[i].Time.Equal(want[i].Time) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	jobs := Fold(got)
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2", len(jobs))
	}
	if jobs[0].State != "done" || !jobs[0].Terminal() {
		t.Errorf("j1 folded to %q", jobs[0].State)
	}
	if jobs[1].State != "failed" || jobs[1].Error != "boom" {
		t.Errorf("j2 folded to %q/%q", jobs[1].State, jobs[1].Error)
	}
}

// TestTornTailTruncated simulates a crash mid-append: a partial final
// line is discarded on Open, the good prefix replays, and subsequent
// appends produce a well-formed file.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	mustAppend(t, j, jobRecord("j1", 1, t0), jobRecord("j2", 2, t0))
	j.Close()

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the last line (no terminator).
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("replay after torn tail = %+v, want just j1", recs)
	}
	mustAppend(t, j2, jobRecord("j3", 3, t0))
	j2.Close()

	_, recs, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j1" || recs[1].ID != "j3" {
		t.Fatalf("replay after heal = %+v, want [j1 j3]", recs)
	}
}

// TestCorruptionStopsReplay flips one byte in every position of a
// journaled line in turn and asserts replay never yields a record from
// the damaged line or past it — mirroring the cache codec's
// tamper-rejection discipline.
func TestCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	mustAppend(t, j,
		jobRecord("j1", 1, t0),
		Record{Kind: KindState, Time: t0, ID: "j1", State: "done"},
		jobRecord("j2", 2, t0),
	)
	j.Close()
	path := filepath.Join(dir, FileName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLineEnd := bytes.IndexByte(pristine, '\n') + 1

	for off := 0; off < firstLineEnd-1; off++ {
		data := append([]byte(nil), pristine...)
		data[off] ^= 0x40
		if bytes.Equal(data, pristine) {
			continue
		}
		recs, _ := decodeAll(data)
		if len(recs) != 0 {
			// Flips inside the first line must kill it and stop replay.
			t.Fatalf("flip at %d: replayed %d records from a damaged head", off, len(recs))
		}
	}

	// Damage in the middle line keeps the first record only.
	secondLineEnd := firstLineEnd + bytes.IndexByte(pristine[firstLineEnd:], '\n') + 1
	data := append([]byte(nil), pristine...)
	data[firstLineEnd+20] ^= 0x01
	recs, good := decodeAll(data)
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("mid-file damage: replayed %+v, want just j1's job record", recs)
	}
	if good != firstLineEnd {
		t.Fatalf("good offset %d, want %d", good, firstLineEnd)
	}
	_ = secondLineEnd
}

// TestCompactKeepsLiveAndRecentTerminal pins the compaction policy:
// live jobs always survive, terminal jobs beyond the keep window and
// the schedule records of older journals are dropped, and the compacted
// file folds identically.
func TestCompactKeepsLiveAndRecentTerminal(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	// Five terminal jobs finishing in order, one live (running) job,
	// then the records an older daemon wrote for one live and one
	// deleted schedule.
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		mustAppend(t, j,
			jobRecord("jt-"+id, uint64(i+1), t0.Add(time.Duration(i)*time.Minute)),
			Record{Kind: KindState, Time: t0.Add(time.Duration(i)*time.Minute + 30*time.Second), ID: "jt-" + id, State: "done"},
		)
	}
	mustAppend(t, j,
		jobRecord("jlive", 99, t0.Add(time.Hour)),
		Record{Kind: KindState, Time: t0.Add(time.Hour), ID: "jlive", State: "running"},
	)
	spec := testSpec(7)
	mustAppend(t, j,
		Record{Kind: kindSchedule, Time: t0, ID: "s1", Tenant: "t1", Spec: &spec},
		Record{Kind: kindSchedule, Time: t0, ID: "s2", Tenant: "t1", Spec: &spec},
		Record{Kind: kindScheduleDelete, Time: t0, ID: "s2"},
	)

	if err := j.Compact(2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind != KindJob && r.Kind != KindState {
			t.Errorf("compaction kept a %q record for %s", r.Kind, r.ID)
		}
	}
	jobs := Fold(recs)
	var ids []string
	for _, v := range jobs {
		ids = append(ids, v.ID+":"+v.State)
	}
	want := []string{"jt-d:done", "jt-e:done", "jlive:running"}
	if len(ids) != len(want) {
		t.Fatalf("compacted jobs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("compacted jobs = %v, want %v", ids, want)
		}
	}
	// Spec survives compaction intact (hash-identical).
	wantHash, _ := testSpec(99).Hash()
	if jobs[2].Hash != wantHash {
		t.Errorf("live job hash %q, want %q", jobs[2].Hash, wantHash)
	}
	gotHash, err := jobs[2].Spec.Hash()
	if err != nil || gotHash != wantHash {
		t.Errorf("live job spec re-hash %q (%v), want %q", gotHash, err, wantHash)
	}
}

// scheduleFixture is a journal written by a daemon that still served
// recurring schedules: job j1 ran, schedule s1 registered its spec at a
// 1 s interval and ticked jobs j2 and j3, then schedule s2 was
// registered and deleted. Its 12 lines are job, state, schedule and
// schedule_delete records exactly as that daemon framed them.
const scheduleFixture = "testdata/schedules.jsonl"

// fixtureCopy copies a testdata journal into a fresh directory as its
// journal file, so Open may truncate or compact it.
func fixtureCopy(t *testing.T, name string) (dir string, lines int) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, bytes.Count(data, []byte("\n"))
}

// fixtureLine returns the first line of a testdata journal whose
// payload has the given kind, without its newline.
func fixtureLine(tb testing.TB, name string, kind Kind) []byte {
	tb.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`{"kind":"`+string(kind)+`"`)) {
			return line
		}
	}
	tb.Fatalf("%s has no %q line", name, kind)
	return nil
}

// TestScheduleFold replays a journal that holds schedule records: every
// line must replay, nothing may be truncated, and the jobs recorded
// before, between and after the schedule records must all fold.
// Compacting it then leaves only job and state lines that fold to the
// same jobs.
func TestScheduleFold(t *testing.T) {
	dir, lines := fixtureCopy(t, scheduleFixture)
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != lines {
		t.Fatalf("replayed %d of %d records", len(recs), lines)
	}
	jobs := Fold(recs)
	var got []string
	for _, v := range jobs {
		got = append(got, v.ID+":"+v.State)
	}
	if want := "j1:done j2:done j3:done"; strings.Join(got, " ") != want {
		t.Fatalf("folded jobs = %v, want %s", got, want)
	}

	if err := j.Compact(len(jobs)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	compacted, good := decodeAll(data)
	if good != len(data) {
		t.Fatalf("compacted journal damaged at byte %d of %d", good, len(data))
	}
	for _, r := range compacted {
		if r.Kind != KindJob && r.Kind != KindState {
			t.Errorf("compaction kept a %q record for %s", r.Kind, r.ID)
		}
	}
	refolded := Fold(compacted)
	if len(refolded) != len(jobs) {
		t.Fatalf("compacted journal folds to %d jobs, want %d", len(refolded), len(jobs))
	}
	for i, v := range refolded {
		w := jobs[i]
		if v.ID != w.ID || v.Tenant != w.Tenant || v.Hash != w.Hash || v.State != w.State ||
			v.Error != w.Error || !v.Created.Equal(w.Created) || !v.Finished.Equal(w.Finished) {
			t.Errorf("compacted view %+v, want %+v", v, w)
		}
		if h, err := v.Spec.Hash(); err != nil || h != w.Hash {
			t.Errorf("%s: compacted spec hashes to %q (%v), want %q", v.ID, h, err, w.Hash)
		}
	}
}

// TestRejectsMalformedRecords pins validation of the line decoder.
func TestRejectsMalformedRecords(t *testing.T) {
	for _, line := range []string{
		"",
		"short",
		"00000000000000000000", // no space at offset 16
		"zzzzzzzzzzzzzzzz {\"kind\":\"job\",\"id\":\"x\"}",
		"0000000000000000 {\"kind\":\"job\",\"id\":\"x\"}",  // wrong checksum
		"af63bd4c8601b7df {\"kind\":\"nope\",\"id\":\"x\"}", // unknown kind (checksum also wrong)
	} {
		if _, err := DecodeLine([]byte(line)); err == nil {
			t.Errorf("DecodeLine(%q) accepted malformed input", line)
		}
	}
	// A well-formed line with an unknown kind: re-frame correctly.
	rec := Record{Kind: "mystery", ID: "x"}
	if line, err := encodeLine(rec); err == nil {
		if _, err := DecodeLine(line[:len(line)-1]); err == nil {
			t.Error("DecodeLine accepted unknown record kind")
		}
	}
	// And one without an ID.
	if line, err := encodeLine(Record{Kind: KindJob}); err == nil {
		if _, err := DecodeLine(line[:len(line)-1]); err == nil {
			t.Error("DecodeLine accepted record without id")
		}
	}
}

// TestAutoCompact pins that crossing the record threshold triggers an
// automatic rewrite instead of unbounded growth.
func TestAutoCompact(t *testing.T) {
	oldAt, oldKeep := autoCompactAt, autoCompactKeep
	autoCompactAt, autoCompactKeep = 40, 4
	defer func() { autoCompactAt, autoCompactKeep = oldAt, oldKeep }()

	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	t0 := time.Now().UTC()
	// Enough terminal jobs to cross autoCompactAt (2 records per job).
	for i := 0; i <= autoCompactAt; i++ {
		id := "j" + time.Duration(i).String()
		mustAppend(t, j,
			jobRecord(id, uint64(i), t0.Add(time.Duration(i))),
			Record{Kind: KindState, Time: t0.Add(time.Duration(i)), ID: id, State: "done"},
		)
	}
	if n := len(j.Records()); n >= autoCompactAt {
		t.Fatalf("journal grew to %d records; auto-compaction never ran", n)
	}
	// The kept window folds to the most recent terminal jobs only.
	jobs := Fold(j.Records())
	if len(jobs) > autoCompactAt {
		t.Fatalf("folded %d jobs after auto-compaction", len(jobs))
	}
}
