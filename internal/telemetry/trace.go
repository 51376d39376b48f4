package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"polce/internal/core"
)

// TraceRecord is one line of an NDJSON solver trace: a solver event with a
// wall-clock offset and the solver's Work counter at the time, a
// request-scoped span ("kind": "span", see Tracer), or the final
// cumulative-stats record ("kind": "stats") closing the trace.
type TraceRecord struct {
	// Kind is a core.EventKind string (source-edge, sink-edge, var-edge,
	// cycle, sweep), "span" for a Tracer span, or "stats" for the closing
	// record.
	Kind string `json:"kind"`
	// TMicros is the wall-clock offset from trace start, in microseconds.
	// For spans it is the span's start offset.
	TMicros int64 `json:"t_us"`
	// Work is the solver's edge-addition counter at the time of the
	// record; in the closing record it is the final Stats.Work. Spans
	// leave it zero.
	Work int64 `json:"work,omitempty"`

	From      string   `json:"from,omitempty"`
	To        string   `json:"to,omitempty"`
	Witness   string   `json:"witness,omitempty"`
	Vars      []string `json:"vars,omitempty"`
	Collapsed int      `json:"collapsed,omitempty"`

	// Span fields (kind "span"): Trace is the request ID shared by every
	// span of one request, Span the span's own ID, Parent the enclosing
	// span's ID (empty for a root span), Name the span name (http,
	// queue-wait, ingest-drain, cycle-search, ls-pass, ...), DurMicros
	// the span's duration, and Attrs free-form key/value detail.
	Trace     string         `json:"trace,omitempty"`
	Span      string         `json:"span,omitempty"`
	Parent    string         `json:"parent,omitempty"`
	Name      string         `json:"name,omitempty"`
	DurMicros int64          `json:"dur_us,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`

	// Stats holds the full cumulative counters on the closing record.
	Stats *TraceStats `json:"stats,omitempty"`
}

// TraceStats mirrors core.Stats field by field for the closing record, so
// traces can be replayed and checked against the solver's own accounting.
type TraceStats struct {
	VarsCreated    int   `json:"vars_created"`
	VarsEliminated int   `json:"vars_eliminated"`
	Work           int64 `json:"work"`
	Redundant      int64 `json:"redundant"`
	CycleSearches  int64 `json:"cycle_searches"`
	CycleVisits    int64 `json:"cycle_visits"`
	CyclesFound    int64 `json:"cycles_found"`
	LSWork         int64 `json:"ls_work"`
	PeriodicSweeps int64 `json:"periodic_sweeps"`
	SweepVisits    int64 `json:"sweep_visits"`
}

// toTraceStats copies a core.Stats snapshot.
func toTraceStats(st core.Stats) *TraceStats {
	return &TraceStats{
		VarsCreated:    st.VarsCreated,
		VarsEliminated: st.VarsEliminated,
		Work:           st.Work,
		Redundant:      st.Redundant,
		CycleSearches:  st.CycleSearches,
		CycleVisits:    st.CycleVisits,
		CyclesFound:    st.CyclesFound,
		LSWork:         st.LSWork,
		PeriodicSweeps: st.PeriodicSweeps,
		SweepVisits:    st.SweepVisits,
	}
}

// TraceWriter streams solver events as NDJSON, one record per line, each
// stamped with the wall-clock offset from trace start and the solver's
// Work counter. Call Observe from the Edge and Event methods of the
// solver's core.MetricsSink, WriteStats with the final Stats, then Close.
//
// The writer is safe for concurrent use; the solver itself is
// single-threaded but HTTP handlers may flush concurrently.
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	start  time.Time
	events int64
	err    error
}

// NewTraceWriter starts a trace on w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{bw: bufio.NewWriter(w), start: time.Now()}
}

// CreateTrace creates (truncating) the file at path and starts a trace on
// it; Close closes the file.
func CreateTrace(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTraceWriter(f)
	t.closer = f
	return t, nil
}

// write appends one record, retaining the first error.
func (t *TraceWriter) write(rec TraceRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = t.bw.Write(append(line, '\n'))
	}
	if err != nil {
		t.err = err
	}
}

// exprString renders an expression endpoint, tolerating nil.
func exprString(e core.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// Observe encodes one solver event as a trace record. A sink that traces
// passes its Event values here and packs each Edge call's arguments into
// an Event first.
func (t *TraceWriter) Observe(ev core.Event) {
	rec := TraceRecord{
		Kind:    ev.Kind.String(),
		TMicros: time.Since(t.start).Microseconds(),
		Work:    ev.Work,
	}
	switch ev.Kind {
	case core.EventCycle:
		rec.Witness = ev.Witness.Name()
		rec.Vars = make([]string, len(ev.Vars))
		for i, v := range ev.Vars {
			rec.Vars[i] = v.Name()
		}
		rec.Collapsed = ev.Collapsed
	case core.EventSweep:
		rec.Collapsed = ev.Collapsed
	default:
		rec.From = exprString(ev.From)
		rec.To = exprString(ev.To)
	}
	t.mu.Lock()
	t.events++
	t.mu.Unlock()
	t.write(rec)
}

// Events returns the number of events written so far (stats records
// excluded).
func (t *TraceWriter) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// WriteStats appends the closing cumulative-stats record; its Work stamp
// is the solver's final Stats.Work.
func (t *TraceWriter) WriteStats(st core.Stats) {
	t.write(TraceRecord{
		Kind:    "stats",
		TMicros: time.Since(t.start).Microseconds(),
		Work:    st.Work,
		Stats:   toTraceStats(st),
	})
}

// Close flushes the trace and closes the underlying file if the writer
// opened it, returning the first error encountered.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	return t.err
}

// ReadTrace parses an NDJSON trace back into records, for replay and
// verification against the solver's Stats.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []TraceRecord
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
