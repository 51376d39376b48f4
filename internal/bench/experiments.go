package bench

import (
	"fmt"
	"runtime"
	"time"

	"polce"
	"polce/internal/andersen"
	"polce/internal/telemetry"
)

// Experiment is one of the paper's configurations (Table 4).
type Experiment struct {
	Name   string
	Form   polce.Form
	Cycles polce.CyclePolicy
	Desc   string
	// Interval configures polce.CyclePeriodic (0 = solver default).
	Interval int
}

// Experiments lists the six configurations of Table 4, in the paper's
// order.
var Experiments = []Experiment{
	{Name: "SF-Plain", Form: polce.SF, Cycles: polce.CycleNone, Desc: "Standard form, no cycle elimination"},
	{Name: "IF-Plain", Form: polce.IF, Cycles: polce.CycleNone, Desc: "Inductive form, no cycle elimination"},
	{Name: "SF-Oracle", Form: polce.SF, Cycles: polce.CycleOracle, Desc: "Standard form, with full (oracle) cycle elimination"},
	{Name: "IF-Oracle", Form: polce.IF, Cycles: polce.CycleOracle, Desc: "Inductive form, with full (oracle) cycle elimination"},
	{Name: "SF-Online", Form: polce.SF, Cycles: polce.CycleOnline, Desc: "Standard form, using online cycle elimination"},
	{Name: "IF-Online", Form: polce.IF, Cycles: polce.CycleOnline, Desc: "Inductive form, with online cycle elimination"},
}

// Ablation is the §4 extra experiment: standard form searching
// increasing successor chains, which the paper reports detecting more
// cycles than the decreasing search at much higher cost.
var Ablation = Experiment{
	Name: "SF-Incr", Form: polce.SF, Cycles: polce.CycleOnlineIncreasing,
	Desc: "Standard form, online elimination via increasing chains (ablation)",
}

// PeriodicAblations are the prior-work strategy the paper's introduction
// argues against: offline elimination sweeps at a fixed frequency
// ([FA96, FF97, MW97]-style periodic simplification), here every 2000
// edge additions.
var PeriodicAblations = []Experiment{
	{Name: "SF-Periodic", Form: polce.SF, Cycles: polce.CyclePeriodic, Interval: 2000,
		Desc: "Standard form, offline sweep every 2000 edge additions (prior work)"},
	{Name: "IF-Periodic", Form: polce.IF, Cycles: polce.CyclePeriodic, Interval: 2000,
		Desc: "Inductive form, offline sweep every 2000 edge additions (prior work)"},
}

// ExperimentByName looks up a configuration, including the ablations.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	if name == Ablation.Name {
		return Ablation, true
	}
	for _, e := range PeriodicAblations {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run holds the measurements of one (benchmark, experiment) cell: the
// paper's Tables 2 and 3 columns, plus (under Options.Phases) the phase
// breakdown and search-depth distribution summaries.
type Run struct {
	Edges      int           // edges in the final graph
	Work       int64         // total edge additions, including redundant
	Redundant  int64         // edge additions that found the edge present
	Time       time.Duration // solve time; includes the LS pass for IF
	Eliminated int           // variables removed by cycle elimination
	Searches   int64         // online chain searches
	Visits     int64         // nodes visited by the searches
	AllocBytes uint64        // heap allocated during the run (space cost)

	// Phase breakdown of Time: SolveTime is the constraint-generation +
	// closure share (the Analyze call), LSTime the least-solution pass
	// (IF only; Time = SolveTime + LSTime), and ClosureTime the
	// solver-side closure share of SolveTime (recorded only under
	// Options.Phases).
	SolveTime   time.Duration
	ClosureTime time.Duration
	LSTime      time.Duration

	// Search-depth distribution summaries (nodes visited per online
	// cycle search — the empirical distribution behind Theorem 5.2),
	// recorded only under Options.Phases.
	DepthP50 float64
	DepthP90 float64
	DepthMax float64

	// Least-solution engine shape (IF only): topological levels of the
	// predecessor DAG and the memoized-union hit rate of the pass.
	LSLevels       int64
	LSUnionHitRate float64
}

// VisitsPerSearch is the measured analogue of Theorem 5.2's E(R_X).
func (r Run) VisitsPerSearch() float64 {
	if r.Searches == 0 {
		return 0
	}
	return float64(r.Visits) / float64(r.Searches)
}

// Result aggregates one benchmark's measurements.
type Result struct {
	Bench Benchmark

	// Table 1 statistics.
	ASTNodes     int
	LOC          int
	SetVars      int
	InitialNodes int // variables + distinct sources and sinks (graph nodes)
	InitialEdges int
	InitSCCVars  int
	InitSCCMax   int
	FinalSCCVars int
	FinalSCCMax  int

	// Section 5 premises: edge density (edges per variable) of the
	// initial and closed graphs — the model's p·n parameter.
	InitialDensity float64
	FinalDensity   float64

	// Runs maps experiment name → measurements.
	Runs map[string]Run

	// OraclePass1 is the cost of obtaining the oracle — the reference
	// IF-Online pass plus BuildOracle — recorded when an oracle
	// experiment ran. The oracle run itself (pass 2) is its Run.Time.
	OraclePass1 time.Duration
}

// Options configures a harness run.
type Options struct {
	// Seed is the solver's variable-order seed.
	Seed int64
	// Order selects the variable-order strategy (default OrderRandom, as
	// in the paper's experiments).
	Order polce.OrderStrategy
	// Repeat re-runs each timed experiment and keeps the best time (the
	// paper reports best of three). 0 means 1.
	Repeat int
	// Phases installs a telemetry sink in every timed run, recording the
	// closure/least-solution phase breakdown and the search-depth
	// distribution summaries (Run.ClosureTime, Run.DepthP50/P90/Max).
	// The sink costs an empty call per new edge and a histogram update
	// per cycle search and collapse, nothing per redundant attempt.
	Phases bool
}

// RunBenchmark measures the named experiments (nil = all six) on one
// benchmark. The oracle experiments derive their oracle from an untimed
// IF-Online pass on the same program.
func RunBenchmark(b Benchmark, names []string, opt Options) (*Result, error) {
	p, err := load(b)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		for _, e := range Experiments {
			names = append(names, e.Name)
		}
	}
	repeat := opt.Repeat
	if repeat <= 0 {
		repeat = 1
	}

	res := &Result{Bench: b, ASTNodes: p.nodes, LOC: p.loc, Runs: map[string]Run{}}

	// Table 1 statistics from the initial (unclosed) graph.
	initial := andersen.AnalyzeInitial(p.file, andersen.Options{Form: polce.SF, Seed: opt.Seed})
	res.SetVars = initial.Sys.Stats().VarsCreated
	vv, src, snk := initial.Sys.EdgeCounts()
	res.InitialEdges = vv + src + snk
	res.InitialNodes = res.SetVars + src + snk // distinct sources/sinks per edge occurrence
	res.InitSCCVars, res.InitSCCMax = initial.Sys.CycleClassStats()
	res.InitialDensity = initial.Sys.CurrentGraphStats().Density

	// Reference pass: IF-Online, used both for the final SCC statistics
	// and to build the oracle. Not part of any experiment's timing (a
	// requested IF-Online run is re-run timed below), but measured so
	// the oracle experiments can report their pass-1 cost.
	refStart := time.Now()
	ref := andersen.Analyze(p.file, andersen.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: opt.Seed, Order: opt.Order})
	refElapsed := time.Since(refStart)
	res.FinalSCCVars, res.FinalSCCMax = ref.Sys.CycleClassStats()
	res.FinalDensity = ref.Sys.CurrentGraphStats().Density
	var oracle *polce.Oracle

	for _, name := range names {
		exp, ok := ExperimentByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q", name)
		}
		if exp.Cycles == polce.CycleOracle && oracle == nil {
			buildStart := time.Now()
			oracle = polce.BuildOracle(ref.Sys)
			res.OraclePass1 = refElapsed + time.Since(buildStart)
		}
		res.Runs[name] = runOne(p, exp, oracle, opt, repeat)
	}
	return res, nil
}

// runOne times one experiment configuration, keeping the best-timed of
// repeat runs (the solver is deterministic, so the counters and
// distribution summaries are identical across repeats; only the timings
// and allocation noise vary).
func runOne(p *program, exp Experiment, oracle *polce.Oracle, opt Options, repeat int) Run {
	var best Run
	for i := 0; i < repeat; i++ {
		aOpts := andersen.Options{
			Form:             exp.Form,
			Cycles:           exp.Cycles,
			Seed:             opt.Seed,
			Order:            opt.Order,
			Oracle:           oracle,
			PeriodicInterval: exp.Interval,
		}
		var sm *telemetry.SolverMetrics
		if opt.Phases {
			sm = telemetry.NewSolverMetrics(telemetry.NewRegistry())
			aOpts.Metrics = sm
		}
		// Settle the heap before timing so a cell is not charged for
		// collecting the previous cell's (or repeat's) floating garbage —
		// run back to back, cells otherwise bleed GC tax into the next,
		// drowning small deltas on large cells.
		runtime.GC()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		r := andersen.Analyze(p.file, aOpts)
		solveElapsed := time.Since(start)
		var lsElapsed time.Duration
		if exp.Form == polce.IF {
			// The paper always includes the least-solution pass in
			// inductive-form timings.
			lsStart := time.Now()
			r.Sys.ComputeLeastSolutions()
			lsElapsed = time.Since(lsStart)
		}
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		// Stats are read after ComputeLeastSolutions so the LS engine
		// counters (levels, union hit rate) describe the pass just timed.
		st := r.Sys.Stats()
		run := Run{
			Edges:      r.Sys.TotalEdges(),
			Work:       st.Work,
			Redundant:  st.Redundant,
			Time:       solveElapsed + lsElapsed,
			Eliminated: st.VarsEliminated,
			Searches:   st.CycleSearches,
			Visits:     st.CycleVisits,
			AllocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc,
			SolveTime:  solveElapsed,
			LSTime:     lsElapsed,
		}
		if exp.Form == polce.IF {
			run.LSLevels = st.LSLevels
			run.LSUnionHitRate = st.LSUnionHitRate()
		}
		if sm != nil {
			run.ClosureTime, _ = sm.Phases.Get(telemetry.PhaseClosure)
			run.DepthP50 = sm.SearchDepth.Quantile(0.5)
			run.DepthP90 = sm.SearchDepth.Quantile(0.9)
			run.DepthMax = sm.SearchDepth.Max()
		}
		if i == 0 || run.Time < best.Time {
			best = run
		}
	}
	return best
}

// RunSuite measures the experiments across a benchmark list.
func RunSuite(benches []Benchmark, names []string, opt Options) ([]*Result, error) {
	var out []*Result
	for _, b := range benches {
		r, err := RunBenchmark(b, names, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
