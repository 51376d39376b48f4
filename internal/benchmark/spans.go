package benchmark

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"polce/internal/telemetry"
)

// spanRecorder keeps the benchmark's own spans in memory, in the same
// record shape as the serve layer's NDJSON trace, so one file holds both and
// the two join on the trace ID (the X-Request-Id of a served request). Every
// span is recorded around a call into one layer's public functions; nothing
// here reaches inside the program. A nil recorder records nothing, which is
// how untraced runs stay free of tracing cost.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []telemetry.TraceRecord
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// span is one open span; end records it. A nil span is a no-op.
type span struct {
	r      *spanRecorder
	id     string
	trace  string
	parent string
	name   string
	start  time.Time
}

// begin opens a span named name under parent (or as the root of trace when
// parent is nil).
func (r *spanRecorder) begin(parent *span, trace, name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := fmt.Sprintf("b%06x", r.next)
	r.mu.Unlock()
	s := &span{r: r, id: id, trace: trace, name: name, start: time.Now()}
	if parent != nil {
		s.parent, s.trace = parent.id, parent.trace
	}
	return s
}

func (s *span) end() {
	if s != nil {
		s.r.add(s, s.start, time.Since(s.start))
	}
}

// root records an externally measured root span of trace and returns it.
func (r *spanRecorder) root(trace, name string, start time.Time, d time.Duration) *span {
	if r == nil {
		return nil
	}
	s := r.begin(nil, trace, name)
	r.add(s, start, d)
	return s
}

// child records an externally measured child interval of s and returns it,
// so it can take children of its own.
func (s *span) child(name string, start time.Time, d time.Duration) *span {
	if s == nil {
		return nil
	}
	c := s.r.begin(s, "", name)
	s.r.add(c, start, d)
	return c
}

func (r *spanRecorder) add(s *span, start time.Time, d time.Duration) {
	rec := telemetry.TraceRecord{
		Kind:      "span",
		TMicros:   start.Sub(r.t0).Microseconds(),
		Trace:     s.trace,
		Span:      s.id,
		Parent:    s.parent,
		Name:      s.name,
		DurMicros: d.Microseconds(),
	}
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

func (r *spanRecorder) records() []telemetry.TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]telemetry.TraceRecord(nil), r.spans...)
}

// layerOf maps a span name to the layer it times. The benchmark's own span
// names carry their layer as a prefix; the serve layer's spans are named by
// phase, with the solver-side phases attributed to core.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	switch name {
	case "cycle-search", "ls-pass":
		return "core"
	}
	return "serve"
}

// traceAnalysis is what the joined span trees say: self time per layer and
// how well each pass, edit or request span is covered by its children.
type traceAnalysis struct {
	SelfMs   map[string]float64
	Coverage Summary
}

// coverageParents are the span names whose child coverage is checked.
var coverageParents = map[string]bool{"loadgen.pass": true, "loadgen.edit": true, "loadgen.request": true}

// joinTraces attaches the serve layer's root spans (one "http" span per
// request, parentless in the server's own trace) under the benchmark's
// client-side "net.http" span of the same trace ID.
func joinTraces(own, served []telemetry.TraceRecord) []telemetry.TraceRecord {
	clientSpan := map[string]string{}
	for _, r := range own {
		if r.Name == "net.http" {
			clientSpan[r.Trace] = r.Span
		}
	}
	all := append([]telemetry.TraceRecord(nil), own...)
	for _, r := range served {
		if r.Kind != "span" {
			continue
		}
		if r.Parent == "" {
			r.Parent = clientSpan[r.Trace]
		}
		all = append(all, r)
	}
	return all
}

// analyzeTrace computes self time per layer — a span's duration minus the
// part of it its children cover — and the child coverage of every pass,
// edit and request span.
func analyzeTrace(recs []telemetry.TraceRecord) traceAnalysis {
	type key struct{ trace, span string }
	children := map[key][]telemetry.TraceRecord{}
	for _, r := range recs {
		if r.Parent != "" {
			k := key{r.Trace, r.Parent}
			children[k] = append(children[k], r)
		}
	}
	a := traceAnalysis{SelfMs: map[string]float64{}}
	var cover []float64
	for _, r := range recs {
		covered := coveredMicros(r, children[key{r.Trace, r.Span}])
		self := r.DurMicros - covered
		if self < 0 {
			self = 0
		}
		a.SelfMs[layerOf(r.Name)] += float64(self) / 1000
		if coverageParents[r.Name] && r.DurMicros > 0 {
			cover = append(cover, float64(covered)/float64(r.DurMicros))
		}
	}
	a.Coverage = Summarize(cover)
	return a
}

// coveredMicros is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMicros(parent telemetry.TraceRecord, kids []telemetry.TraceRecord) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	lo, hi := parent.TMicros, parent.TMicros+parent.DurMicros
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.TMicros, k.TMicros+k.DurMicros
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// writeNDJSON writes the records, ordered by start time, one per line.
func writeNDJSON(path string, recs []telemetry.TraceRecord) error {
	sorted := append([]telemetry.TraceRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TMicros < sorted[j].TMicros })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range sorted {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
