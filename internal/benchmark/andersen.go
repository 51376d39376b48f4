package benchmark

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"polce"
	"polce/internal/andersen"
	"polce/internal/cgen"
	"polce/internal/progen"
	"polce/internal/telemetry"
)

type formKind int

const (
	formIF formKind = iota
	formSF
)

func (f formKind) solverForm() polce.Form {
	if f == formSF {
		return polce.SF
	}
	return polce.IF
}

// profiles are the synthetic stand-ins for the paper's Table 1 programs:
// target AST size and the progen seed the repository's experiment grid
// uses for the same name, so the programs here are the grid's programs.
var profiles = map[string]struct {
	ast  int
	seed int64
}{
	"eqntott":   {8117, 113},
	"simulator": {10946, 114},
	"less-177":  {15179, 115},
	"li":        {16828, 116},
	"pmake":     {31148, 118},
}

// corpora are the programs one pass analyses. The programs are fixed; the
// run's seed picks the solver's variable order o(·) for every program of
// every pass. Mid-sized programs keep a pass short enough that a run holds
// dozens of passes, and so dozens of independent orders: the closure cost
// of one program moves by 15–20% from one random order to the next, and
// only averaging over many orders makes runs at different seeds agree.
var corpora = map[formKind][]string{
	formIF: {"simulator", "less-177", "li", "pmake"},
	formSF: {"eqntott", "simulator", "less-177", "li"},
}

// smokeAST is the size every program shrinks to in smoke runs.
const smokeAST = 1200

//go:embed testdata/golden.json
var goldenJSON []byte

// GoldenPath is where -update-golden writes, relative to the repository
// root.
const GoldenPath = "internal/benchmark/testdata/golden.json"

// goldenProgram pins one corpus program: its source (by hash) and its
// points-to result as computed by SF-Plain — standard form with no cycle
// elimination, a closure path independent of the online collapse code the
// timed passes run.
type goldenProgram struct {
	Name          string `json:"name"`
	AST           int    `json:"ast"`
	ProgenSeed    int64  `json:"progen_seed"`
	SourceFNV     string `json:"source_fnv"`
	PointsToFNV   string `json:"points_to_fnv"`
	PointsToEdges int    `json:"points_to_edges"`
}

type goldenFile struct {
	Oracle   string          `json:"oracle"`
	Programs []goldenProgram `json:"programs"`
}

func loadGolden() (map[string]goldenProgram, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	out := map[string]goldenProgram{}
	for _, p := range g.Programs {
		out[p.Name] = p
	}
	return out, nil
}

// UpdateGolden regenerates the golden file at path by solving every corpus
// program with SF-Plain. It takes a few seconds per program.
func UpdateGolden(path string, log func(format string, args ...any)) error {
	names := map[string]bool{}
	for _, c := range corpora {
		for _, n := range c {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	g := goldenFile{Oracle: "SF-Plain (standard form, no cycle elimination)"}
	for _, name := range sorted {
		prog := makeProgram(name, false)
		file, err := cgen.MustParse(name+".c", prog.src)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		start := time.Now()
		res := andersen.Analyze(file, andersen.Options{Form: polce.SF, Cycles: polce.CycleNone, Seed: 1})
		fp, edges := pointsToFingerprint(res)
		log("golden %-10s %6d AST  %7d points-to edges  %s", name, prog.ast, edges, time.Since(start).Round(time.Millisecond))
		g.Programs = append(g.Programs, goldenProgram{
			Name: name, AST: prog.ast, ProgenSeed: prog.progenSeed,
			SourceFNV: fnv64(prog.src), PointsToFNV: fp, PointsToEdges: edges,
		})
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type program struct {
	name       string
	ast        int
	progenSeed int64
	src        string
}

func makeProgram(name string, smoke bool) program {
	pr := profiles[name]
	p := program{name: name, ast: pr.ast, progenSeed: pr.seed}
	if smoke {
		p.ast = smokeAST
	}
	p.src = progen.Generate(progen.ByScale(p.progenSeed, p.ast))
	return p
}

func fnv64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pointsToFingerprint hashes the whole points-to graph — every location
// with its sorted targets — so results from any form, cycle policy or
// variable order compare equal exactly when the analyses agree.
func pointsToFingerprint(r *andersen.Result) (string, int) {
	h := fnv.New64a()
	edges := 0
	for _, l := range r.Locations {
		names := r.PointsToNames(l)
		sort.Strings(names)
		edges += len(names)
		h.Write([]byte(l.Name))
		for _, n := range names {
			h.Write([]byte{0})
			h.Write([]byte(n))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64()), edges
}

// andersenRun is a set-up andersen-if or andersen-sf workload: the corpus
// sources and, per program, the points-to fingerprint every pass must
// reproduce.
type andersenRun struct {
	p        params
	form     formKind
	programs []program
	want     []string // reference fingerprint per program
	oracle   string
	passes   uint64 // passes run so far; pass k solves under order seed derive(seed, k, i)

	sink *telemetry.SolverMetrics // traced only
	// last holds the latest pass's solved programs, for the per-pass
	// counters.
	last []*andersen.Result
	// initialMs is the AnalyzeInitial time over the corpus (traced only).
	initialMs float64
	// warmBad counts programs the warm-up pass got wrong.
	warmBad int
}

func setupAndersen(p params, form formKind) (*andersenRun, error) {
	a := &andersenRun{p: p, form: form}
	for _, name := range corpora[form] {
		a.programs = append(a.programs, makeProgram(name, p.smoke))
	}
	if err := a.references(); err != nil {
		return nil, err
	}
	if p.traced {
		a.sink = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		var err error
		if a.initialMs, err = a.timeInitial(); err != nil {
			return nil, err
		}
	}
	// One untimed warm-up pass: the heap grows to its working size before
	// anything is timed. Its checks count like a timed pass's.
	var err error
	if _, a.warmBad, err = a.pass(nil); err != nil {
		return nil, err
	}
	return a, nil
}

// references loads each program's expected fingerprint: from the golden
// file for the full-size corpus (whose sources it pins by hash), or, for
// smoke-sized programs the golden file does not cover, from a solve in the
// other form.
func (a *andersenRun) references() error {
	if !a.p.smoke {
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		a.oracle = "golden SF-Plain"
		for _, prog := range a.programs {
			g, ok := golden[prog.name]
			if !ok || g.SourceFNV != fnv64(prog.src) {
				return fmt.Errorf("golden file does not pin %s's current source; regenerate it with -update-golden", prog.name)
			}
			a.want = append(a.want, g.PointsToFNV)
		}
		return nil
	}
	other := formSF
	if a.form == formSF {
		other = formIF
	}
	a.oracle = "other-form online solve"
	for i, prog := range a.programs {
		file, err := cgen.MustParse(prog.name+".c", prog.src)
		if err != nil {
			return fmt.Errorf("%s: %w", prog.name, err)
		}
		res := andersen.Analyze(file, andersen.Options{Form: other.solverForm(), Cycles: polce.CycleOnline, Seed: derive(a.p.seed, 0, uint64(i))})
		fp, _ := pointsToFingerprint(res)
		a.want = append(a.want, fp)
	}
	return nil
}

// timeInitial times andersen.AnalyzeInitial — constraint generation into
// an unclosed graph — over the corpus.
func (a *andersenRun) timeInitial() (float64, error) {
	var total time.Duration
	for _, prog := range a.programs {
		file, err := cgen.MustParse(prog.name+".c", prog.src)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		andersen.AnalyzeInitial(file, andersen.Options{Form: a.form.solverForm(), Seed: a.p.seed})
		total += time.Since(start)
	}
	return msOf(total), nil
}

// passTiming is one pass's time split by the layer each call belongs to.
type passTiming struct {
	total, parse, analyze, ls, closure time.Duration
}

// pass parses, analyses and computes least solutions for every program of
// the corpus, each under the pass's own variable order, then — untimed —
// checks every program's points-to fingerprint. It returns the timing and
// the number of mismatching programs.
func (a *andersenRun) pass(ph *phase) (passTiming, int, error) {
	k := a.passes
	a.passes++
	var t passTiming
	results := make([]*andersen.Result, len(a.programs))
	root := a.p.rec.begin(nil, fmt.Sprintf("pass-%d", k), "loadgen.pass")
	start := time.Now()
	for i, prog := range a.programs {
		sp := a.p.rec.begin(root, "", "loadgen.program")
		t0 := time.Now()
		file, err := cgen.MustParse(prog.name+".c", prog.src)
		if err != nil {
			return t, 0, fmt.Errorf("%s: %w", prog.name, err)
		}
		t1 := time.Now()
		closure0 := a.closureTotal()
		res := andersen.Analyze(file, andersen.Options{
			Form:    a.form.solverForm(),
			Cycles:  polce.CycleOnline,
			Seed:    derive(a.p.seed, k, uint64(i)),
			Metrics: a.sinkOrNil(),
		})
		t2 := time.Now()
		res.Sys.ComputeLeastSolutions()
		t3 := time.Now()
		closure := a.closureTotal() - closure0
		t.parse += t1.Sub(t0)
		t.analyze += t2.Sub(t1)
		t.ls += t3.Sub(t2)
		t.closure += closure
		sp.child("cgen.parse", t0, t1.Sub(t0))
		// The closure drains interleave with constraint generation inside
		// Analyze; the sink gives only their total, drawn as one block.
		sp.child("andersen.analyze", t1, t2.Sub(t1)).child("core.closure", t1, closure)
		sp.child("core.ls", t2, t3.Sub(t2))
		sp.end()
		results[i] = res
	}
	t.total = time.Since(start)
	root.end()

	bad := 0
	for i, res := range results {
		if fp, _ := pointsToFingerprint(res); fp != a.want[i] {
			bad++
			if ph != nil {
				ph.notes = append(ph.notes, fmt.Sprintf("pass %d: %s points-to fingerprint %s, %s says %s", k, a.programs[i].name, fp, a.oracle, a.want[i]))
			}
		}
	}
	a.last = results
	return t, bad, nil
}

func (a *andersenRun) sinkOrNil() polce.MetricsSink {
	if a.sink == nil {
		return nil
	}
	return a.sink
}

// closureTotal reads the sink's cumulative closure time (0 untraced).
func (a *andersenRun) closureTotal() time.Duration {
	if a.sink == nil {
		return 0
	}
	d, _ := a.sink.Phases.Get(telemetry.PhaseClosure)
	return d
}

func (a *andersenRun) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{failed: int64(a.warmBad)}
	if a.warmBad > 0 {
		ph.notes = append(ph.notes, fmt.Sprintf("warm-up pass: %d program(s) disagree with %s", a.warmBad, a.oracle))
	}
	var parse, analyze, ls, closure []float64
	var tot polce.Stats
	var levels, edges, liveVars, hwm int64
	start := time.Now()
	for len(ph.ops) < 2 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every pass starts from the same collected heap, so one pass's
		// garbage is not billed to the next.
		a.last = nil
		runtime.GC()
		t, bad, err := a.pass(ph)
		if err != nil {
			return nil, err
		}
		ph.ops = append(ph.ops, t.total)
		ph.attempted++
		ph.failed += int64(bad)
		// The live heap with this pass's whole corpus solved and reachable;
		// one pass's graphs depend on its variable orders, so the run
		// reports the median over passes.
		var mem runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&mem)
		ph.liveHeaps = append(ph.liveHeaps, float64(mem.HeapAlloc))
		if !a.p.traced {
			continue
		}
		parse = append(parse, msOf(t.parse))
		analyze = append(analyze, msOf(t.analyze))
		ls = append(ls, msOf(t.ls))
		closure = append(closure, msOf(t.closure))
		var pass polce.Stats
		for _, res := range a.last {
			sumStats(&pass, res.Sys.Stats())
			edges += int64(res.Sys.TotalEdges())
			liveVars += int64(res.Sys.CurrentGraphStats().Vars)
			hwm = max(hwm, int64(res.Sys.StorageStats().WorklistHWM))
		}
		levels += pass.LSLevels
		sumStats(&tot, pass)
	}
	if a.p.traced {
		n := float64(len(ph.ops))
		ph.setLayer("cgen.parse_ms", Quantile(parse, 0.5))
		ph.setLayer("andersen.analyze_ms", Quantile(analyze, 0.5))
		ph.setLayer("andersen.initial_ms", a.initialMs)
		ph.setLayer("core.ls_ms", Quantile(ls, 0.5))
		ph.setLayer("core.closure_ms", Quantile(closure, 0.5))
		setStatsLayers(ph, a.sink, tot, n)
		// Per pass: the deepest predecessor DAG among the corpus programs,
		// and the whole corpus's graph size.
		ph.setLayer("core.ls_levels", float64(levels)/n)
		ph.setLayer("core.edges", float64(edges)/n)
		ph.setLayer("graph.live_vars", float64(liveVars)/n)
		ph.setLayer("graph.vars_created", float64(tot.VarsCreated)/n)
		ph.setLayer("graph.worklist_hwm", float64(hwm))
	}
	ph.notes = append(ph.notes, fmt.Sprintf("%s: %d pass(es) of %d programs checked against %s", formName(a.form), len(ph.ops), len(a.programs), a.oracle))
	return ph, nil
}

func formName(f formKind) string {
	if f == formSF {
		return "andersen-sf"
	}
	return "andersen-if"
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verify has nothing left to check: every pass was checked as it ran.
func (a *andersenRun) verify(context.Context) ([]string, error) { return nil, nil }

func (a *andersenRun) close() error {
	a.last = nil
	return nil
}
