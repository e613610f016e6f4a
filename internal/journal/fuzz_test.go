package journal

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeLine mirrors the cache codec's fuzzing discipline for the
// journal's line framing: arbitrary bytes must never decode into a
// record that round-trips differently, and a valid line must always
// round-trip exactly.
func FuzzDecodeLine(f *testing.F) {
	spec := testSpec(1)
	rec := Record{Kind: KindJob, Time: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC), ID: "j1", Tenant: "t", Spec: &spec}
	if line, err := encodeLine(rec); err == nil {
		f.Add(line[:len(line)-1])
	}
	if line, err := encodeLine(Record{Kind: KindState, Time: time.Now().UTC(), ID: "j1", State: "done"}); err == nil {
		f.Add(line[:len(line)-1])
	}
	f.Add([]byte("0000000000000000 {}"))
	f.Add([]byte("not a journal line"))
	f.Add(fixtureLine(f, scheduleFixture, "schedule"))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeLine(line)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to a line that decodes to the
		// same record (identity modulo JSON field ordering, which
		// encodeLine fixes by construction).
		out, err := encodeLine(rec)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		rec2, err := DecodeLine(out[:len(out)-1])
		if err != nil {
			t.Fatalf("re-encoded line failed to decode: %v", err)
		}
		b1, _ := encodeLine(rec)
		b2, _ := encodeLine(rec2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round-trip drift:\n %q\n %q", b1, b2)
		}
	})
}

// FuzzReplay feeds arbitrary bytes through the whole-file replay path:
// it must never panic, and the reported good offset must end exactly at
// a line boundary whose prefix decodes cleanly.
func FuzzReplay(f *testing.F) {
	spec := testSpec(2)
	var seedFile bytes.Buffer
	for _, r := range []Record{
		{Kind: KindJob, Time: time.Now().UTC(), ID: "j1", Spec: &spec},
		{Kind: KindState, Time: time.Now().UTC(), ID: "j1", State: "running"},
	} {
		line, _ := encodeLine(r)
		seedFile.Write(line)
	}
	f.Add(seedFile.Bytes())
	f.Add(seedFile.Bytes()[:seedFile.Len()-3])
	f.Add([]byte("garbage\nmore garbage\n"))
	f.Add(append(fixtureLine(f, scheduleFixture, "schedule"), '\n'))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := decodeAll(data)
		if good > len(data) {
			t.Fatalf("good offset %d beyond input length %d", good, len(data))
		}
		if good > 0 && data[good-1] != '\n' {
			t.Fatalf("good offset %d does not end at a line boundary", good)
		}
		// Re-decoding the trusted prefix must reproduce the same records.
		recs2, good2 := decodeAll(data[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("prefix re-decode drift: %d/%d records, %d/%d offset",
				len(recs2), len(recs), good2, good)
		}
		// Folding must never panic on any decoded sequence.
		Fold(recs)
	})
}
