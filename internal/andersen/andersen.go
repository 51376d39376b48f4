// Package andersen implements Andersen's points-to analysis for C (the
// paper's case study, Section 3) on top of the inclusion-constraint solver
// in the root polce package.
//
// Each abstract memory location l — a variable, a function, a heap object
// per allocation site, or a string literal — is modelled by a constructed
// term ref(name_l, X_l, X̄_l): a covariant name, the covariant points-to set
// X_l (the range of the location's "get" function) and the same variable
// contravariantly (the domain of its "set" function). Updating a location
// set τ with values V is the constraint τ ⊆ ref(1, 1, V̄); dereferencing is
// τ ⊆ ref(1, T, 0̄).
//
// Functions are modelled with per-arity constructors lam_n(r, p̄1...p̄n):
// covariant return, contravariant parameters. Direct calls to known
// functions are wired straight through (which also handles variadic
// functions); indirect calls flow through lam sinks.
//
// Expressions are analysed in the paper's L-value discipline: every
// expression denotes the set of abstract locations it designates, and
// R-values are obtained by one "get" projection. Arrays are collapsed to a
// single element and structs are field-insensitive, as in the paper.
package andersen

import (
	"fmt"

	"polce"
	"polce/internal/cgen"
)

// refCon is the shared 3-ary location constructor: name (covariant),
// get (covariant), set (contravariant).
var refCon = polce.NewConstructor("ref", polce.Covariant, polce.Covariant, polce.Contravariant)

// nameCon builds nullary location-name terms, one per location.
var nameCon = polce.NewConstructor("name")

// Location is one abstract memory location.
type Location struct {
	Name string // qualified name: "x", "f::local", "heap@3:7", "str@9:2"
	// Content is the location's points-to set variable X_l.
	Content *polce.Var
	// Ref is the location's ref(name_l, X_l, X̄_l) term; its identity is
	// what appears in other locations' least solutions.
	Ref *polce.Term
	// Func is non-nil for function locations.
	Func *FuncInfo
}

// FuncInfo carries the calling interface of a function location.
type FuncInfo struct {
	Params   []*Location // parameter locations, in order
	Ret      *polce.Var  // return-value set
	Lam      *polce.Term // lam_n(Ret, X̄_p1 ... X̄_pn)
	Variadic bool
	Defined  bool // a body has been analysed (not just a prototype)
}

// Options configures an analysis run; it mirrors the solver options.
type Options struct {
	Form   polce.Form
	Cycles polce.CyclePolicy
	Seed   int64
	Oracle *polce.Oracle
	// Order selects the variable-order strategy (default random, as in
	// the paper).
	Order polce.OrderStrategy
	// PeriodicInterval configures polce.CyclePeriodic (0 = solver
	// default).
	PeriodicInterval int
	// Observer receives solver events; see polce.Options.Observer.
	Observer func(polce.Event)
	// Metrics receives per-operation solver measurements; see
	// polce.Options.Metrics.
	Metrics polce.MetricsSink
}

// Result is the outcome of an analysis: the solved constraint system plus
// the location table for extracting the points-to graph.
type Result struct {
	Sys       *polce.Solver
	Locations []*Location

	locOf map[*polce.Term]*Location
	facts map[*FuncInfo]*funcFacts
}

// funcFacts records, per analysed function body, the raw material for the
// interprocedural MOD analysis: the target set of every store, and the
// callee sets of every call site.
type funcFacts struct {
	writes   []polce.Expr // location-set expressions written through
	direct   []*FuncInfo  // statically known callees
	indirect []polce.Expr // function-location sets of indirect call sites
}

// LocationByName finds a location by its qualified name, or nil.
func (r *Result) LocationByName(name string) *Location {
	for _, l := range r.Locations {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// PointsTo returns the abstract locations l may point to, i.e. the ref
// terms in the least solution of X_l, in deterministic (first-reached)
// order. This is the points-to graph the paper's client computes.
func (r *Result) PointsTo(l *Location) []*Location {
	var out []*Location
	for _, t := range r.Sys.LeastSolution(l.Content) {
		if tgt, ok := r.locOf[t]; ok {
			out = append(out, tgt)
		}
	}
	return out
}

// PointsToNames returns the names of PointsTo(l).
func (r *Result) PointsToNames(l *Location) []string {
	ls := r.PointsTo(l)
	names := make([]string, len(ls))
	for i, t := range ls {
		names[i] = t.Name
	}
	return names
}

// PointsToEdges counts the edges of the points-to graph (the sum of
// points-to set sizes over all locations).
func (r *Result) PointsToEdges() int {
	n := 0
	for _, l := range r.Locations {
		n += len(r.PointsTo(l))
	}
	return n
}

// gen is the constraint generator state.
type gen struct {
	sys  *polce.Solver
	res  *Result
	opts Options

	lamCons map[int]*polce.Constructor
	tenv    *cgen.TypeEnv

	// scopes is a stack of name→location tables; scopes[0] is the file
	// scope.
	scopes []map[string]*Location

	curFunc     *FuncInfo // function whose body is being analysed
	curFuncName string

	nameCount map[string]int // qualified-name collision counter
}

// Analyze runs Andersen's analysis over a parsed file.
func Analyze(file *cgen.File, opts Options) *Result {
	sys := polce.New(polce.Options{
		Form:             opts.Form,
		Order:            opts.Order,
		Cycles:           opts.Cycles,
		Seed:             opts.Seed,
		Oracle:           opts.Oracle,
		PeriodicInterval: opts.PeriodicInterval,
		Observer:         opts.Observer,
		Metrics:          opts.Metrics,
	})
	return analyzeInto(file, sys, opts)
}

// AnalyzeInitial builds only the initial (unclosed) constraint graph for
// Table 1's initial statistics.
func AnalyzeInitial(file *cgen.File, opts Options) *Result {
	sys := polce.NewInitialGraph(polce.Options{
		Form:   opts.Form,
		Cycles: polce.CycleNone,
		Seed:   opts.Seed,
	})
	return analyzeInto(file, sys, opts)
}

func analyzeInto(file *cgen.File, sys *polce.Solver, opts Options) *Result {
	g := &gen{
		sys:       sys,
		opts:      opts,
		lamCons:   map[int]*polce.Constructor{},
		tenv:      cgen.NewTypeEnv(),
		scopes:    []map[string]*Location{{}},
		nameCount: map[string]int{},
	}
	g.res = &Result{
		Sys:   sys,
		locOf: map[*polce.Term]*Location{},
		facts: map[*FuncInfo]*funcFacts{},
	}

	// Pass 1: register record layouts, globals and functions so that
	// top-level use-before-declaration (mutual recursion, function
	// pointers to later functions) resolves.
	for _, d := range file.Decls {
		switch decl := d.(type) {
		case *cgen.RecordDecl:
			g.tenv.DefineRecord(decl)
		case *cgen.VarDecl:
			g.declareVar(decl, "")
		case *cgen.FuncDecl:
			g.declareFunc(decl)
		}
	}

	// Pass 2: initialisers and function bodies.
	for _, d := range file.Decls {
		switch decl := d.(type) {
		case *cgen.VarDecl:
			if decl.Init != nil {
				if l := g.lookup(decl.Name); l != nil {
					g.genInit(l.Ref, decl.Init)
				}
			}
		case *cgen.FuncDecl:
			if decl.Body != nil {
				g.genFuncBody(decl)
			}
		}
	}
	return g.res
}

// lam returns the lam constructor for arity n.
func (g *gen) lam(n int) *polce.Constructor {
	if c, ok := g.lamCons[n]; ok {
		return c
	}
	sig := make([]polce.Variance, n+1)
	sig[0] = polce.Covariant
	for i := 1; i <= n; i++ {
		sig[i] = polce.Contravariant
	}
	c := polce.NewConstructor(fmt.Sprintf("lam%d", n), sig...)
	g.lamCons[n] = c
	return c
}

// newLocation allocates an abstract location with a fresh content
// variable. Names are made unique with a #k suffix when shadowing
// re-declares the same qualified name.
func (g *gen) newLocation(name string) *Location {
	if n := g.nameCount[name]; n > 0 {
		g.nameCount[name] = n + 1
		name = fmt.Sprintf("%s#%d", name, n)
	} else {
		g.nameCount[name] = 1
	}
	content := g.sys.Fresh("X_" + name)
	l := &Location{
		Name:    name,
		Content: content,
		Ref:     polce.NewTerm(refCon, polce.NewTerm(nameCon), content, content),
	}
	g.res.Locations = append(g.res.Locations, l)
	g.res.locOf[l.Ref] = l
	return l
}

// pushScope / popScope manage function-body scoping.
func (g *gen) pushScope() {
	g.scopes = append(g.scopes, map[string]*Location{})
	g.tenv.Push()
}

func (g *gen) popScope() {
	g.scopes = g.scopes[:len(g.scopes)-1]
	g.tenv.Pop()
}

// bind installs a location (and its declared type) in the current scope.
func (g *gen) bind(name string, l *Location, t *cgen.Type) {
	g.scopes[len(g.scopes)-1][name] = l
	g.tenv.Bind(name, t)
}

// lookup resolves a name to its location, innermost scope first.
func (g *gen) lookup(name string) *Location {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if l, ok := g.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

// lookupType resolves a name's declared type.
func (g *gen) lookupType(name string) *cgen.Type { return g.tenv.Lookup(name) }

// typeOf infers an expression's static type via the shared TypeEnv.
func (g *gen) typeOf(e cgen.Expr) *cgen.Type { return g.tenv.TypeOf(e) }

// declareVar creates the location for a variable declaration. prefix
// qualifies locals.
func (g *gen) declareVar(d *cgen.VarDecl, prefix string) *Location {
	if d.Name == "" {
		return nil
	}
	name := d.Name
	if prefix != "" {
		name = prefix + "::" + name
	}
	l := g.newLocation(name)
	g.bind(d.Name, l, d.Type)
	return l
}

// declareFunc registers a function's location, parameter locations,
// return variable and lam term. Re-declaring (prototype then definition)
// reuses the location but refreshes the interface to the definition's.
func (g *gen) declareFunc(d *cgen.FuncDecl) *Location {
	l := g.lookup(d.Name)
	if l == nil {
		l = g.newLocation(d.Name)
		g.bind(d.Name, l, d.Type)
	}
	if l.Func != nil && (l.Func.Defined || d.Body == nil) {
		return l // keep the definition's interface
	}
	fi := &FuncInfo{
		Ret:      g.sys.Fresh("ret_" + d.Name),
		Variadic: d.Type.Variadic,
		Defined:  d.Body != nil,
	}
	args := []polce.Expr{fi.Ret}
	for i, p := range d.Params {
		pname := p.Name
		if pname == "" {
			pname = fmt.Sprintf("arg%d", i)
		}
		pl := g.newLocation(d.Name + "::" + pname)
		fi.Params = append(fi.Params, pl)
		args = append(args, pl.Content)
	}
	fi.Lam = polce.NewTerm(g.lam(len(d.Params)), args...)
	l.Func = fi
	// The function location's content holds the function value.
	g.sys.AddConstraint(fi.Lam, l.Content)
	return l
}

// genFuncBody analyses one function definition.
func (g *gen) genFuncBody(d *cgen.FuncDecl) {
	l := g.lookup(d.Name)
	if l == nil || l.Func == nil {
		l = g.declareFunc(d)
	}
	fi := l.Func
	fi.Defined = true
	g.curFunc = fi
	g.curFuncName = d.Name
	g.pushScope()
	for i, p := range d.Params {
		if i < len(fi.Params) && p.Name != "" {
			g.bind(p.Name, fi.Params[i], p.Type)
		}
	}
	g.genStmt(d.Body)
	g.popScope()
	g.curFunc = nil
	g.curFuncName = ""
}
