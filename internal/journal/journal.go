// Package journal persists the dlsimd daemon's job lifecycle as an
// append-only, checksummed JSON Lines file — the durable record that
// lets a restarted daemon restore terminal job snapshots and re-enqueue
// work that was queued or running at crash time.
//
// Each line is one Record framed as
//
//	<16 hex digits of FNV-1a 64 over the payload> <compact JSON payload>\n
//
// The per-line checksum plus the whole-line framing give the same
// damage discipline as the binary result cache (internal/engine's
// cache codec): any torn, truncated or bit-flipped line is detected,
// never silently replayed. A torn tail — the expected artifact of a
// crash mid-append — is truncated away on Open so subsequent appends
// produce a well-formed file; a corrupt line in the middle of the file
// stops replay at the last good record (everything before it is
// trusted, nothing after it is).
//
// Compaction rewrites the file keeping only the records that still
// matter — live (non-terminal) jobs and the most recent N terminal
// jobs — using the same write-to-temp-then-rename discipline as
// internal/cache, so readers and crashes never observe a half-compacted
// journal.
//
// The journal records lifecycle metadata only. Campaign results live in
// the content-addressed result store; on recovery a re-enqueued job
// whose spec is cached re-materializes its results with zero backend
// runs, which is what makes crash recovery cheap.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// Kind discriminates journal records.
type Kind string

// Record kinds: job and state records track one job's lifecycle.
const (
	KindJob   Kind = "job"   // a job was submitted (carries the spec)
	KindState Kind = "state" // a job changed state
)

// Journals written while the daemon still served recurring schedules
// hold these two kinds. They stay valid on decode, because Open cuts
// the file at the first line it rejects and would drop every job
// recorded after an old schedule line. Fold skips them, so the next
// compaction drops them.
const (
	kindSchedule       Kind = "schedule"
	kindScheduleDelete Kind = "schedule_delete"
)

// Record is one journal line. Fields are populated per Kind: job
// records carry the identity (tenant, hash, spec); state records carry
// the transition.
type Record struct {
	Kind Kind      `json:"kind"`
	Time time.Time `json:"ts"`
	ID   string    `json:"id"`

	// KindJob
	Tenant string               `json:"tenant,omitempty"`
	Hash   string               `json:"hash,omitempty"`
	Spec   *engine.CampaignSpec `json:"spec,omitempty"`

	// KindState
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// FileName is the journal's file name inside its directory.
const FileName = "journal.jsonl"

// autoCompactAt triggers an automatic compaction when the in-memory
// record count crosses this threshold; autoCompactKeep is the terminal
// job history retained by that compaction. Variables so tests can
// exercise the trigger without thousands of fsynced appends.
var (
	autoCompactAt   = 8192
	autoCompactKeep = 512
)

// syncFile is the fsync behind Append's durability guarantee — a
// variable so tests can force sync failures without a sick disk.
var syncFile = func(f *os.File) error { return f.Sync() }

// Journal is an open journal file. All methods are safe for concurrent
// use.
type Journal struct {
	dir  string
	path string

	mu   sync.Mutex
	f    *os.File
	recs []Record
}

// Open opens (creating if needed) the journal in dir and replays its
// existing records. A torn final line is truncated away; a corrupt
// line earlier in the file stops the replay there — recs holds every
// record up to the first damage, and the file is truncated to that
// point so future appends extend a well-formed log.
func Open(dir string) (j *Journal, recs []Record, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, good := decodeAll(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate damaged tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, path: path, f: f, recs: append([]Record(nil), recs...)}, recs, nil
}

// decodeAll parses data line by line, returning the records up to the
// first damaged line and the byte offset of the end of the last good
// line.
func decodeAll(data []byte) (recs []Record, good int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no terminator
		}
		rec, err := DecodeLine(data[off : off+nl])
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		good = off
	}
	return recs, good
}

// DecodeLine parses and verifies one journal line (without its
// trailing newline).
func DecodeLine(line []byte) (Record, error) {
	if len(line) < 18 || line[16] != ' ' {
		return Record{}, fmt.Errorf("journal: malformed line framing")
	}
	var want uint64
	if _, err := fmt.Sscanf(string(line[:16]), "%016x", &want); err != nil {
		return Record{}, fmt.Errorf("journal: malformed checksum: %w", err)
	}
	payload := line[17:]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != want {
		return Record{}, fmt.Errorf("journal: checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: decode record: %w", err)
	}
	switch rec.Kind {
	case KindJob, KindState, kindSchedule, kindScheduleDelete:
	default:
		return Record{}, fmt.Errorf("journal: unknown record kind %q", rec.Kind)
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("journal: record without id")
	}
	return rec, nil
}

// encodeLine renders one record in the journal's line framing,
// including the trailing newline.
func encodeLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	line := make([]byte, 0, 18+len(payload))
	line = append(line, fmt.Sprintf("%016x ", h.Sum64())...)
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// Append durably appends one record: the line is written and fsynced
// before Append returns, so a record the caller observed as journaled
// survives an immediate power cut. Crossing the auto-compaction
// threshold triggers a compaction keeping the default terminal
// history.
func (j *Journal) Append(rec Record) error {
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := syncFile(j.f); err != nil {
		// A failed fsync means the record's durability is unknown: the
		// line may or may not survive a crash. Surface it — the caller
		// (the daemon's journal observer) decides whether to degrade
		// health, count it, or drop it; silently pretending the append
		// was durable is the one wrong answer.
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.recs = append(j.recs, rec)
	if len(j.recs) >= autoCompactAt {
		return j.compactLocked(autoCompactKeep)
	}
	return nil
}

// Records returns a copy of the journal's current record sequence.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.recs...)
}

// Close releases the journal's file handle. Safe to call more than
// once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// JobView is one job's state folded from the journal: the submitted
// spec plus the latest observed transition.
type JobView struct {
	ID     string
	Tenant string
	Hash   string
	Spec   engine.CampaignSpec
	State  string // last journaled state; "queued" when only the job record exists
	Error  string

	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Terminal reports whether the view's last journaled state is final.
func (v JobView) Terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// Fold replays a record sequence into per-job views: job records
// create views and state records advance them. Records referencing
// unknown IDs (their job record fell to damage or compaction) and
// records of any other kind are skipped. Jobs are returned in
// first-submission order.
func Fold(recs []Record) []JobView {
	jobs := make(map[string]*JobView)
	var order []string
	for _, r := range recs {
		switch r.Kind {
		case KindJob:
			if r.Spec == nil {
				continue
			}
			if _, ok := jobs[r.ID]; ok {
				continue
			}
			jobs[r.ID] = &JobView{
				ID: r.ID, Tenant: r.Tenant, Hash: r.Hash,
				Spec: *r.Spec, State: "queued", Created: r.Time,
			}
			order = append(order, r.ID)
		case KindState:
			v, ok := jobs[r.ID]
			if !ok {
				continue
			}
			v.State = r.State
			v.Error = r.Error
			switch r.State {
			case "running":
				v.Started = r.Time
			case "done", "failed", "cancelled":
				v.Finished = r.Time
			}
		}
	}
	views := make([]JobView, 0, len(order))
	for _, id := range order {
		views = append(views, *jobs[id])
	}
	return views
}

// Compact rewrites the journal keeping only the records that still
// matter: every live (non-terminal) job and the keepTerminal most
// recently finished terminal jobs. Each surviving job is re-emitted as
// its job record plus one state record carrying the folded final state,
// so a compacted journal folds to the same views as the original. The
// rewrite is atomic (temp file + rename); on any failure the previous
// journal remains intact.
func (j *Journal) Compact(keepTerminal int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked(keepTerminal)
}

func (j *Journal) compactLocked(keepTerminal int) error {
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	jobs := Fold(j.recs)

	// Partition and rank terminal jobs by finish time, newest first.
	var live, terminal []JobView
	for _, v := range jobs {
		if v.Terminal() {
			terminal = append(terminal, v)
		} else {
			live = append(live, v)
		}
	}
	sort.SliceStable(terminal, func(a, b int) bool {
		return terminal[a].Finished.After(terminal[b].Finished)
	})
	if keepTerminal < 0 {
		keepTerminal = 0
	}
	if len(terminal) > keepTerminal {
		terminal = terminal[:keepTerminal]
	}
	// Restore submission order across the kept set.
	kept := append(append([]JobView(nil), live...), terminal...)
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].Created.Before(kept[b].Created) })

	var recs []Record
	for _, v := range kept {
		v := v
		recs = append(recs, Record{
			Kind: KindJob, Time: v.Created, ID: v.ID,
			Tenant: v.Tenant, Hash: v.Hash, Spec: &v.Spec,
		})
		if v.State != "queued" {
			// One state record carrying the folded final state; running
			// jobs re-fold as running so recovery re-enqueues them.
			t := v.Finished
			if t.IsZero() {
				t = v.Started
			}
			recs = append(recs, Record{Kind: KindState, Time: t, ID: v.ID, State: v.State, Error: v.Error})
		}
	}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, r := range recs {
		line, err := encodeLine(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}

	tmp, err := os.CreateTemp(j.dir, FileName+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Swap the append handle onto the new file.
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	old := j.f
	j.f = f
	old.Close()
	j.recs = recs
	return nil
}
