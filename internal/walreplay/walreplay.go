// Package walreplay replays a constraint log standalone — outside any
// server — and fingerprints the graph it reconstructs. It is the
// substrate of `polce-serve -wal-verify` (Verify) and of the crash-recovery
// equivalence tests: replay the frames through the normal parse → lower →
// solve path, then compare the recovered graph's manifest (version,
// partition signature, sampled least solutions, mutation-path counters)
// against a reference.
//
// Replay is deterministic because the log captures everything the solver's
// state depends on: the solver options (graph form, cycle policy, seed)
// are pinned in the log's meta, the frames hold the accepted SCL text in
// accept order, and the serve layer serialises accept so that variable
// creation order and constraint application order both equal frame order.
package walreplay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"polce"
	"polce/internal/scl"
	"polce/internal/wal"
)

// OptionsMeta renders the replay-relevant solver options as the string map
// pinned into a log directory's meta.json. Observers and metrics sinks
// are deliberately absent: they never change the graph.
func OptionsMeta(opt polce.Options) map[string]string {
	return map[string]string{
		"form":        opt.Form.String(),
		"cycles":      opt.Cycles.String(),
		"seed":        strconv.FormatInt(opt.Seed, 10),
		"retractable": strconv.FormatBool(opt.Retractable),
	}
}

// OptionsFromMeta reconstructs solver options from a recorded meta map.
func OptionsFromMeta(meta map[string]string) (polce.Options, error) {
	var opt polce.Options
	var err error
	if opt.Form, err = polce.ParseForm(meta["form"]); err != nil {
		return opt, fmt.Errorf("walreplay: meta: %w", err)
	}
	if opt.Cycles, err = polce.ParseCyclePolicy(meta["cycles"]); err != nil {
		return opt, fmt.Errorf("walreplay: meta: %w", err)
	}
	seed, err := strconv.ParseInt(meta["seed"], 10, 64)
	if err != nil {
		return opt, fmt.Errorf("walreplay: meta has bad seed %q", meta["seed"])
	}
	opt.Seed = seed
	if r, ok := meta["retractable"]; ok {
		opt.Retractable, err = strconv.ParseBool(r)
		if err != nil {
			return opt, fmt.Errorf("walreplay: meta has bad retractable %q", r)
		}
	}
	return opt, nil
}

// ParseRetractText parses a retract frame's text — the comma-separated
// decimal sequence numbers of the retracted constraint frames.
func ParseRetractText(text string) ([]uint64, error) {
	if text == "" {
		return nil, nil
	}
	parts := strings.Split(text, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		seq, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("walreplay: bad retract target %q", p)
		}
		out[i] = seq
	}
	return out, nil
}

// FormatRetractText renders retract targets as a retract frame's text.
func FormatRetractText(seqs []uint64) string {
	parts := make([]string, len(seqs))
	for i, s := range seqs {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

// Replay runs the frames through fresh per-session SCL state and one
// solver — the same ParseAppend → Binder.Lower → AddBatch path the server
// ingests through, frame order preserved across sessions — and returns the
// solver, the binders by session label (for name lookups) and the number
// of constraints applied. A constraints frame that fails to parse aborts
// the replay: it parsed when it was logged, so a parse failure means the
// log does not belong to this vocabulary or was damaged beyond the CRC's
// reach.
//
// Retract frames replay in stream order: each frame's text names the
// sequence numbers of the constraint frames it retracts, resolved against
// the batch ids the replay itself issued. A target that is not live at the
// frame's position — never logged, or already retracted — skips the whole
// frame, mirroring RetractBatch's all-or-nothing validation on the live
// server (a DELETE that failed there was logged but retracted nothing).
func Replay(frames []wal.Frame, opt polce.Options) (*polce.Solver, map[string]*scl.Binder, int, error) {
	solver := polce.New(opt)
	type sess struct {
		file   *scl.File
		binder *scl.Binder
	}
	sessions := map[string]*sess{}
	binders := map[string]*scl.Binder{}
	sessionOf := func(label string) *sess {
		ss, ok := sessions[label]
		if !ok {
			f := scl.MustParse("")
			ss = &sess{file: f, binder: scl.NewBinder(f, solver)}
			sessions[label] = ss
			binders[label] = ss.binder
		}
		return ss
	}
	type liveBatch struct {
		session string
		id      polce.BatchID
	}
	ids := map[uint64]liveBatch{} // live frame seq → owning session + batch id
	constraints := 0
	for _, f := range frames {
		switch f.Kind {
		case wal.FrameRetract:
			targets, err := ParseRetractText(f.Text)
			if err != nil {
				return nil, nil, constraints, fmt.Errorf("walreplay: frame %d: %w", f.Seq, err)
			}
			batchIDs := make([]polce.BatchID, 0, len(targets))
			live := true
			for _, seq := range targets {
				// Mirror the serve layer's validation exactly: a target
				// must be live AND owned by the frame's session — a
				// cross-session DELETE failed live, so it must be a no-op
				// on replay too.
				b, ok := ids[seq]
				if !ok || b.session != f.Session {
					live = false
					break
				}
				batchIDs = append(batchIDs, b.id)
			}
			if !live {
				continue // the live DELETE failed validation and retracted nothing
			}
			if _, err := solver.RetractBatch(batchIDs...); err != nil {
				return nil, nil, constraints, fmt.Errorf("walreplay: frame %d retract: %w", f.Seq, err)
			}
			for _, seq := range targets {
				delete(ids, seq)
			}
		default:
			ss := sessionOf(f.Session)
			cs, err := ss.file.ParseAppend(f.Text)
			if err != nil {
				return nil, nil, constraints, fmt.Errorf("walreplay: frame %d does not parse: %w", f.Seq, err)
			}
			batch := ss.binder.Lower(cs)
			ids[f.Seq] = liveBatch{session: f.Session, id: solver.AddBatch(batch)}
			constraints += len(batch)
		}
	}
	return solver, binders, constraints, nil
}

// Sample is one recorded least solution: a variable and its rendered
// terms, in the engine's deterministic first-reached order.
type Sample struct {
	Var   string   `json:"var"`
	Terms []string `json:"terms"`
}

// Manifest fingerprints a recovered graph. Two runs over the same accepted
// stream under the same options produce equal manifests; any divergence —
// a lost batch, a reordered frame, a mismatched seed — shows up in the
// version, the partition signature or a sampled least solution.
type Manifest struct {
	// Options is the meta map the graph was solved under.
	Options map[string]string `json:"options"`
	// Frames and Constraints describe the replayed stream.
	Frames      int    `json:"frames"`
	LastSeq     uint64 `json:"last_seq"`
	Constraints int    `json:"constraints"`

	// Version is the least-solution epoch after replay; it advances only
	// on real mutations, so it is deterministic across runs.
	Version uint64 `json:"version"`
	// Vars is the number of variables created (eliminated ones included).
	Vars int `json:"vars"`
	// Errors is the number of inconsistencies the stream introduced.
	Errors int `json:"errors"`
	// PartitionSig hashes the canonical labelling of the fully-collapsed
	// equivalence classes: FNV-1a over, for each creation index, the
	// smallest creation index sharing its class.
	PartitionSig string `json:"partition_sig"`
	// Work, Redundant, CycleSearches, CycleVisits and CyclesFound are the
	// solver's mutation-path counters — deterministic functions of the
	// accepted stream (read-path counters like LS passes are excluded:
	// they depend on query traffic).
	Work          int64 `json:"work"`
	Redundant     int64 `json:"redundant"`
	CycleSearches int64 `json:"cycle_searches"`
	CycleVisits   int64 `json:"cycle_visits"`
	CyclesFound   int64 `json:"cycles_found"`
	// Retractions, RetractConeVars and RetractReplayed are the retraction
	// counters — deterministic too: the dirty cone is a function of the
	// stream position, not of map iteration order.
	Retractions     int64 `json:"retractions"`
	RetractConeVars int64 `json:"retract_cone_vars"`
	RetractReplayed int64 `json:"retract_replayed"`
	// Samples are least solutions of variables sampled evenly across
	// creation order (all of them when there are at most maxSamples).
	Samples []Sample `json:"samples"`
}

// Fingerprint computes the manifest of a solved graph, sampling at most
// maxSamples least solutions (0 means 64). It runs an offline collapse to
// canonicalise the partition, so call it on graphs whose online serving
// life is over — recovered-for-verification solvers, test references.
func Fingerprint(s *polce.Solver, maxSamples int) Manifest {
	if maxSamples <= 0 {
		maxSamples = 64
	}
	stats := s.Stats()
	m := Manifest{
		Version:         s.Version(),
		Vars:            s.NumCreated(),
		Errors:          s.ErrorCount(),
		Work:            stats.Work,
		Redundant:       stats.Redundant,
		CycleSearches:   stats.CycleSearches,
		CycleVisits:     stats.CycleVisits,
		CyclesFound:     stats.CyclesFound,
		Retractions:     stats.Retractions,
		RetractConeVars: stats.RetractConeVars,
		RetractReplayed: stats.RetractReplayed,
	}

	// Sample least solutions before collapsing: collapse preserves them,
	// but the samples should reflect the graph exactly as recovered.
	n := s.NumCreated()
	stride := 1
	if n > maxSamples {
		stride = (n + maxSamples - 1) / maxSamples
	}
	for i := 0; i < n; i += stride {
		v := s.CreatedVar(i)
		terms := s.LeastSolution(v)
		rendered := make([]string, len(terms))
		for j, t := range terms {
			rendered[j] = t.String()
		}
		m.Samples = append(m.Samples, Sample{Var: v.Name(), Terms: rendered})
	}

	// Canonical partition signature: collapse every remaining SCC offline,
	// then label each creation index with the smallest index in its class
	// (the idiom of the core oracle tests), and hash the labelling.
	s.CollapseCycles()
	h := fnv.New64a()
	var buf [8]byte
	first := map[*polce.Var]int{}
	for i := 0; i < n; i++ {
		r := s.Find(s.CreatedVar(i))
		w, ok := first[r]
		if !ok {
			w = i
			first[r] = i
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(w))
		h.Write(buf[:])
	}
	m.PartitionSig = fmt.Sprintf("fnv1a:%016x", h.Sum64())
	return m
}

// Diff compares two manifests field by field and returns a list of
// human-readable mismatches (nil when equal). Samples compare by variable
// name and rendered term sequence.
func (m Manifest) Diff(other Manifest) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	for k, v := range m.Options {
		if other.Options[k] != v {
			add("options[%s]: %q vs %q", k, v, other.Options[k])
		}
	}
	if m.Frames != other.Frames {
		add("frames: %d vs %d", m.Frames, other.Frames)
	}
	if m.LastSeq != other.LastSeq {
		add("last_seq: %d vs %d", m.LastSeq, other.LastSeq)
	}
	if m.Constraints != other.Constraints {
		add("constraints: %d vs %d", m.Constraints, other.Constraints)
	}
	if m.Version != other.Version {
		add("version: %d vs %d", m.Version, other.Version)
	}
	if m.Vars != other.Vars {
		add("vars: %d vs %d", m.Vars, other.Vars)
	}
	if m.Errors != other.Errors {
		add("errors: %d vs %d", m.Errors, other.Errors)
	}
	if m.PartitionSig != other.PartitionSig {
		add("partition_sig: %s vs %s", m.PartitionSig, other.PartitionSig)
	}
	if m.Work != other.Work {
		add("work: %d vs %d", m.Work, other.Work)
	}
	if m.Redundant != other.Redundant {
		add("redundant: %d vs %d", m.Redundant, other.Redundant)
	}
	if m.CycleSearches != other.CycleSearches {
		add("cycle_searches: %d vs %d", m.CycleSearches, other.CycleSearches)
	}
	if m.CycleVisits != other.CycleVisits {
		add("cycle_visits: %d vs %d", m.CycleVisits, other.CycleVisits)
	}
	if m.CyclesFound != other.CyclesFound {
		add("cycles_found: %d vs %d", m.CyclesFound, other.CyclesFound)
	}
	if m.Retractions != other.Retractions {
		add("retractions: %d vs %d", m.Retractions, other.Retractions)
	}
	if m.RetractConeVars != other.RetractConeVars {
		add("retract_cone_vars: %d vs %d", m.RetractConeVars, other.RetractConeVars)
	}
	if m.RetractReplayed != other.RetractReplayed {
		add("retract_replayed: %d vs %d", m.RetractReplayed, other.RetractReplayed)
	}
	if len(m.Samples) != len(other.Samples) {
		add("samples: %d vs %d", len(m.Samples), len(other.Samples))
		return diffs
	}
	for i := range m.Samples {
		a, b := m.Samples[i], other.Samples[i]
		if a.Var != b.Var {
			add("samples[%d].var: %q vs %q", i, a.Var, b.Var)
			continue
		}
		if strings.Join(a.Terms, ",") != strings.Join(b.Terms, ",") {
			add("samples[%d] (%s): LS %v vs %v", i, a.Var, a.Terms, b.Terms)
		}
	}
	return diffs
}

// StateDiff compares only the state-bearing fields of two manifests: the
// variable population, the error count, the canonical partition signature
// and the sampled least solutions. The history counters (version, work,
// cycle searches, retraction telemetry) are excluded — they fingerprint
// how a graph was reached, and two equivalent graphs reached by different
// histories (a retract-and-replay run versus a from-scratch solve of the
// survivors) legitimately disagree on them. Use Diff when both sides ran
// the same stream; use StateDiff when only the final graph must match.
func (m Manifest) StateDiff(other Manifest) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if m.Vars != other.Vars {
		add("vars: %d vs %d", m.Vars, other.Vars)
	}
	if m.Errors != other.Errors {
		add("errors: %d vs %d", m.Errors, other.Errors)
	}
	if m.PartitionSig != other.PartitionSig {
		add("partition_sig: %s vs %s", m.PartitionSig, other.PartitionSig)
	}
	if len(m.Samples) != len(other.Samples) {
		add("samples: %d vs %d", len(m.Samples), len(other.Samples))
		return diffs
	}
	for i := range m.Samples {
		a, b := m.Samples[i], other.Samples[i]
		if a.Var != b.Var {
			add("samples[%d].var: %q vs %q", i, a.Var, b.Var)
			continue
		}
		if strings.Join(a.Terms, ",") != strings.Join(b.Terms, ",") {
			add("samples[%d] (%s): LS %v vs %v", i, a.Var, a.Terms, b.Terms)
		}
	}
	return diffs
}
