package scl

import (
	"maps"
	"slices"
	"testing"

	"polce"
)

// fileState is everything a ParseAppend may touch: the constructor map
// and its declaration order, the variables in first-use order, the
// queries and the constraint count.
type fileState struct {
	cons        map[string]*polce.Constructor
	consNames   []string
	varNames    []string
	queries     []string
	constraints int
}

func captureState(f *File) fileState {
	return fileState{
		cons:        maps.Clone(f.Cons),
		consNames:   slices.Clone(f.consNames),
		varNames:    slices.Clone(f.varNames),
		queries:     slices.Clone(f.Queries),
		constraints: len(f.Constraints),
	}
}

// equal reports whether f is exactly in state s, constructor identities
// included, with its variable set agreeing with its first-use list.
func (s fileState) equal(f *File) bool {
	if !maps.Equal(s.cons, f.Cons) || !slices.Equal(s.consNames, f.consNames) ||
		!slices.Equal(s.varNames, f.varNames) || !slices.Equal(s.queries, f.Queries) ||
		s.constraints != len(f.Constraints) || len(f.varSet) != len(f.varNames) {
		return false
	}
	for _, name := range f.varNames {
		if !f.varSet[name] {
			return false
		}
	}
	return true
}

// checkNamed reports the first variable or constructor e names that f
// does not record, or "" when it records them all.
func checkNamed(f *File, e Expr) string {
	switch x := e.(type) {
	case *VarExpr:
		if !f.varSet[x.Name] || !slices.Contains(f.varNames, x.Name) {
			return "variable " + x.Name
		}
	case *TermExpr:
		if f.Cons[x.Con] == nil {
			return "constructor " + x.Con
		}
		for _, a := range x.Args {
			if miss := checkNamed(f, a); miss != "" {
				return miss
			}
		}
	case *OpExpr:
		if miss := checkNamed(f, x.L); miss != "" {
			return miss
		}
		return checkNamed(f, x.R)
	}
	return ""
}

// FuzzParseAppend checks SCL admission, the path the service's 400
// answer and its log replay both rely on: parsing never panics, a
// rejected ParseAppend leaves the File exactly as before, and an accepted
// one records every variable and constructor its constraints name. The
// committed corpus (testdata/fuzz/FuzzParseAppend) splits each
// testdata/*.scl program into a base and an append, and holds a rejected
// append that declares a constructor, adds a query and names a new
// variable before it fails.
func FuzzParseAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, more string) {
		file, err := Parse(base)
		if err != nil {
			return
		}
		before := captureState(file)
		cs, err := file.ParseAppend(more)
		if err != nil {
			if !before.equal(file) {
				t.Fatalf("rejected append (%v) changed the file:\nbefore %+v\nafter  %+v", err, before, captureState(file))
			}
			return
		}
		if len(file.Constraints) != before.constraints {
			t.Fatalf("accepted append recorded constraints: %d, want %d", len(file.Constraints), before.constraints)
		}
		for i, c := range cs {
			for _, e := range []Expr{c.L, c.R} {
				if miss := checkNamed(file, e); miss != "" {
					t.Fatalf("constraint %d names %s, which the file does not record", i, miss)
				}
			}
		}
	})
}
