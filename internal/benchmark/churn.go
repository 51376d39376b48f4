package benchmark

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"polce"
	"polce/internal/scl"
	"polce/internal/telemetry"
	"polce/internal/walreplay"
)

// churnRun is a set-up retract-churn workload: a retractable IF-Online
// solver holding one SCL batch per cluster, edited one cluster at a time.
type churnRun struct {
	p      params
	opt    polce.Options
	decls  string   // the constructor declarations, parsed once
	texts  []string // per-cluster SCL text, re-submitted by every edit
	atoms  []string // per-cluster atom constructor, in the tail's solution
	solver *polce.Solver
	file   *scl.File
	binder *scl.Binder
	ids    []polce.BatchID // each cluster's live batch
	tails  []*polce.Var
	sink   *telemetry.SolverMetrics // traced only

	rng   *rand.Rand
	order []int // this round's edit order
	edits int
}

// churnShape sizes the instance: 4096 clusters of 12 variables is ~49k
// variables, large enough that whole-graph terms in the retract and
// least-solution paths dominate an edit.
func churnShape(smoke bool) (clusters, size int) {
	if smoke {
		return 64, 12
	}
	return 4096, 12
}

// churnTexts builds the clusters from the seed. Each cluster is a chain
// seeded by its own atom with a small cycle closed at a seeded point, and a
// third of the clusters take a cross-link from the tail of one of their
// three predecessors — enough entanglement that some retractions must
// replay a surviving neighbour.
func churnTexts(seed int64, clusters, size int) (decls string, texts, atoms []string) {
	rng := rand.New(rand.NewSource(derive(seed, 1)))
	v := func(c, i int) string { return fmt.Sprintf("c%d_v%d", c, i) }
	var d strings.Builder
	for c := 0; c < clusters; c++ {
		atom := fmt.Sprintf("a%d", c)
		atoms = append(atoms, atom)
		fmt.Fprintf(&d, "cons %s\n", atom)
		var b strings.Builder
		fmt.Fprintf(&b, "%s <= %s\n", atom, v(c, 0))
		for i := 1; i < size; i++ {
			fmt.Fprintf(&b, "%s <= %s\n", v(c, i-1), v(c, i))
		}
		fmt.Fprintf(&b, "%s <= %s\n", v(c, size-1), v(c, 1+rng.Intn(size-2)))
		if c > 0 && rng.Intn(3) == 0 {
			from := c - 1 - rng.Intn(min(c, 3))
			fmt.Fprintf(&b, "%s <= %s\n", v(from, size-1), v(c, rng.Intn(size)))
		}
		texts = append(texts, b.String())
	}
	return d.String(), texts, atoms
}

func setupChurn(p params) (*churnRun, error) {
	clusters, size := churnShape(p.smoke)
	r := &churnRun{
		p:   p,
		opt: polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: derive(p.seed, 2), Retractable: true},
		rng: rand.New(rand.NewSource(derive(p.seed, 3))),
	}
	r.decls, r.texts, r.atoms = churnTexts(p.seed, clusters, size)
	if p.traced {
		r.sink = telemetry.NewSolverMetrics(telemetry.NewRegistry())
		r.opt.Metrics = r.sink
	}
	r.solver = polce.New(r.opt)
	r.file = scl.MustParse("")
	r.binder = scl.NewBinder(r.file, r.solver)
	if _, err := r.file.ParseAppend(r.decls); err != nil {
		return nil, err
	}
	for c, text := range r.texts {
		cs, err := r.file.ParseAppend(text)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", c, err)
		}
		r.ids = append(r.ids, r.solver.AddBatch(r.binder.Lower(cs)))
		r.tails = append(r.tails, r.binder.Vars[fmt.Sprintf("c%d_v%d", c, size-1)])
	}
	r.solver.ComputeLeastSolutions()
	return r, nil
}

func (r *churnRun) next() int {
	if len(r.order) == 0 {
		r.order = r.rng.Perm(len(r.texts))
	}
	c := r.order[0]
	r.order = r.order[1:]
	return c
}

func (r *churnRun) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{}
	var parse, lower, add, retract []float64
	var coneFrac float64
	st0 := r.solver.Stats()
	closure0, ls0 := r.phaseTotals()
	start := time.Now()
	for len(ph.ops) < 2 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := r.next()
		sp := r.p.rec.begin(nil, fmt.Sprintf("edit-%d", r.edits), "loadgen.edit")
		r.edits++
		ph.attempted++
		t0 := time.Now()
		rep, err := r.solver.RetractBatch(r.ids[c])
		t1 := time.Now()
		if err != nil {
			ph.failed++
			ph.notes = append(ph.notes, fmt.Sprintf("edit %d: retract cluster %d: %v", r.edits, c, err))
			sp.end()
			continue
		}
		cs, err := r.file.ParseAppend(r.texts[c])
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", c, err)
		}
		batch := r.binder.Lower(cs)
		t3 := time.Now()
		r.ids[c] = r.solver.AddBatch(batch)
		t4 := time.Now()
		ls := r.solver.LeastSolution(r.tails[c])
		t5 := time.Now()
		sp.child("core.retract", t0, t1.Sub(t0))
		sp.child("scl.parse", t1, t2.Sub(t1))
		sp.child("scl.lower", t2, t3.Sub(t2))
		sp.child("core.add", t3, t4.Sub(t3))
		sp.child("core.read", t4, t5.Sub(t4))
		sp.end()

		ph.ops = append(ph.ops, t5.Sub(t0))
		ph.kind("delete", t1.Sub(t0))
		ph.kind("write", t4.Sub(t1))
		ph.kind("read", t5.Sub(t4))
		// The tail's least solution always holds the cluster's own atom.
		if !hasAtom(ls, r.atoms[c]) {
			ph.failed++
			ph.notes = append(ph.notes, fmt.Sprintf("edit %d: least solution of cluster %d's tail lacks %s", r.edits, c, r.atoms[c]))
		}
		if r.p.traced {
			parse = append(parse, float64(t2.Sub(t1))/float64(time.Microsecond))
			lower = append(lower, float64(t3.Sub(t2))/float64(time.Microsecond))
			add = append(add, float64(t4.Sub(t3))/float64(time.Microsecond))
			retract = append(retract, msOf(rep.Duration))
			coneFrac += ratio(float64(rep.DirtyVars), float64(rep.TotalVars))
		}
	}
	if r.p.traced {
		n := float64(len(ph.ops))
		ph.setLayer("scl.parse_us_p50", Quantile(parse, 0.5))
		ph.setLayer("scl.lower_us_p50", Quantile(lower, 0.5))
		ph.setLayer("core.add_us_p50", Quantile(add, 0.5))
		ph.setLayer("core.retract_ms_p50", Quantile(retract, 0.5))
		ph.setLayer("core.retract_cone_frac", coneFrac/n)
		closure1, ls1 := r.phaseTotals()
		ph.setLayer("core.closure_ms", msOf(closure1-closure0)/n)
		ph.setLayer("core.ls_ms", msOf(ls1-ls0)/n)
		setSolverLayers(ph, r.solver, r.sink, statsDelta(r.solver.Stats(), st0), n)
	}
	ph.notes = append(ph.notes, fmt.Sprintf("retract-churn: %d edit(s) over %d clusters, %d variables", len(ph.ops), len(r.texts), r.solver.NumCreated()))
	return ph, nil
}

func (r *churnRun) phaseTotals() (closure, ls time.Duration) {
	if r.sink == nil {
		return 0, 0
	}
	closure, _ = r.sink.Phases.Get(telemetry.PhaseClosure)
	ls, _ = r.sink.Phases.Get(telemetry.PhaseLeastSolution)
	return closure, ls
}

func hasAtom(ls []*polce.Term, atom string) bool {
	for _, t := range ls {
		if t.Con().Name() == atom {
			return true
		}
	}
	return false
}

// verify compares the edited solver with a from-scratch solve of the live
// batches: lowered in the original cluster order (so variables and terms
// are created in the same order) and applied in their current batch order.
func (r *churnRun) verify(context.Context) ([]string, error) {
	refOpt := r.opt
	refOpt.Retractable, refOpt.Metrics = false, nil
	ref := polce.New(refOpt)
	file := scl.MustParse("")
	binder := scl.NewBinder(file, ref)
	if _, err := file.ParseAppend(r.decls); err != nil {
		return nil, err
	}
	lowered := make([][]polce.Constraint, len(r.texts))
	for c, text := range r.texts {
		cs, err := file.ParseAppend(text)
		if err != nil {
			return nil, err
		}
		lowered[c] = binder.Lower(cs)
	}
	byID := make([]int, len(r.texts))
	for c := range byID {
		byID[c] = c
	}
	sort.Slice(byID, func(i, j int) bool { return r.ids[byID[i]] < r.ids[byID[j]] })
	for _, c := range byID {
		ref.AddBatch(lowered[c])
	}
	return walreplay.Fingerprint(r.solver, 64).StateDiff(walreplay.Fingerprint(ref, 64)), nil
}

func (r *churnRun) close() error { return nil }
