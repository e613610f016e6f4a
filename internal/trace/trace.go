// Package trace records and replays scheduling executions. The paper's
// §III observes that reproducing experiments on real applications
// requires "a trace file or similar information describing the behavior
// of the measured application"; this package is that information model:
//
//   - A Recorder captures one chunk event per scheduling operation
//     (worker, task range, request and completion times).
//   - Traces round-trip through a CSV format, the repository's stand-in
//     for the raw data the paper published online (§V).
//   - Per-task execution times extracted from a trace (or measured by
//     any other means) can be replayed as a campaign spec's explicit
//     workload (workload.Spec kind explicit), closing the loop Figure 2
//     describes ("Task Execution Times").
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Event is one scheduling operation: worker w received tasks
// [Start, Start+Count) at time Assigned and completed them at Done.
type Event struct {
	Worker   int
	Start    int64
	Count    int64
	Assigned float64
	Done     float64
}

// Trace is an ordered list of chunk events of one execution.
type Trace struct {
	Events []Event
}

// Recorder collects events; its Record method matches the shape of the
// simulators' observation hooks.
type Recorder struct {
	tr Trace
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one chunk event.
func (r *Recorder) Record(worker int, start, count int64, assigned, done float64) {
	r.tr.Events = append(r.tr.Events, Event{
		Worker: worker, Start: start, Count: count, Assigned: assigned, Done: done,
	})
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return &r.tr }

// Validate checks internal consistency: non-negative and finite times,
// positive counts, Done >= Assigned, task ranges that end within int64,
// and that task ranges do not overlap.
func (t *Trace) Validate() error {
	type span struct{ lo, hi int64 }
	spans := make([]span, 0, len(t.Events))
	for i, e := range t.Events {
		if e.Count <= 0 {
			return fmt.Errorf("trace: event %d has count %d", i, e.Count)
		}
		if e.Start < 0 || e.Worker < 0 {
			return fmt.Errorf("trace: event %d has negative start/worker", i)
		}
		if e.Count > math.MaxInt64-e.Start {
			return fmt.Errorf("trace: event %d task range [%d, %d+%d) overflows int64", i, e.Start, e.Start, e.Count)
		}
		// Written as negated ranges, so NaN fails them too; with Done
		// finite and at least Assigned >= 0, both times are finite.
		if !(e.Assigned >= 0 && e.Done <= math.MaxFloat64) {
			return fmt.Errorf("trace: event %d has times %v, %v; want non-negative and finite", i, e.Assigned, e.Done)
		}
		if !(e.Done >= e.Assigned) {
			return fmt.Errorf("trace: event %d completes before assignment", i)
		}
		spans = append(spans, span{e.Start, e.Start + e.Count})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("trace: task ranges overlap at task %d", spans[i].lo)
		}
	}
	return nil
}

// Tasks returns the total number of tasks covered by the trace. On a
// trace that passed Validate the sum cannot overflow: its ranges are
// disjoint and end within int64.
func (t *Trace) Tasks() int64 {
	var n int64
	for _, e := range t.Events {
		n += e.Count
	}
	return n
}

// Workers returns the number of distinct workers appearing in the trace.
func (t *Trace) Workers() int {
	seen := map[int]bool{}
	for _, e := range t.Events {
		seen[e.Worker] = true
	}
	return len(seen)
}

// Makespan returns the latest completion time.
func (t *Trace) Makespan() float64 {
	var m float64
	for _, e := range t.Events {
		if e.Done > m {
			m = e.Done
		}
	}
	return m
}

// PerTaskTimes distributes each chunk's duration uniformly over its
// tasks and returns the per-task execution times for tasks [0, n). This
// is the extraction step §III describes: chunk-granularity measurements
// are the best available evidence for per-task behaviour. Tasks not
// covered by the trace get zero. Each event costs only the tasks it
// covers below n, however large its count.
func (t *Trace) PerTaskTimes(n int64) []float64 {
	out := make([]float64, n)
	for _, e := range t.Events {
		if e.Count <= 0 {
			continue
		}
		per := (e.Done - e.Assigned) / float64(e.Count)
		hi := e.Start + e.Count
		if hi < e.Start { // wrapped past MaxInt64
			hi = math.MaxInt64
		}
		for i := max(e.Start, 0); i < min(hi, n); i++ {
			out[i] = per
		}
	}
	return out
}

// Write emits the trace as CSV: worker,start,count,assigned,done.
func Write(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"worker", "start", "count", "assigned_s", "done_s"}); err != nil {
		return err
	}
	for _, e := range t.Events {
		row := []string{
			strconv.Itoa(e.Worker),
			strconv.FormatInt(e.Start, 10),
			strconv.FormatInt(e.Count, 10),
			strconv.FormatFloat(e.Assigned, 'g', 17, 64),
			strconv.FormatFloat(e.Done, 'g', 17, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Read parses a CSV trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty file")
	}
	if len(rows[0]) != 5 || rows[0][0] != "worker" {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	t := &Trace{}
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("trace: row %d has %d fields", i+1, len(row))
		}
		worker, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d worker: %v", i+1, err)
		}
		start, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d start: %v", i+1, err)
		}
		count, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d count: %v", i+1, err)
		}
		assigned, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d assigned: %v", i+1, err)
		}
		done, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d done: %v", i+1, err)
		}
		t.Events = append(t.Events, Event{
			Worker: worker, Start: start, Count: count, Assigned: assigned, Done: done,
		})
	}
	return t, nil
}
