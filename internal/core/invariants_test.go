package core

import (
	"strings"
	"testing"

	"polce/internal/core/graph"
)

// TestCheckInvariantsCatchesCorruption breaks one invariant at a time on a
// small solved system and requires CheckInvariants to name it, after
// passing on the intact system.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() (*System, []*Var) {
		s := NewSystem(Options{Form: IF, Cycles: CycleOnline, Seed: 5, Retractable: true})
		var vs []*Var
		for i := 0; i < 6; i++ {
			vs = append(vs, s.Fresh("v"))
		}
		a := NewTerm(NewConstructor("a"))
		s.BeginBatch()
		s.AddConstraint(a, vs[0])
		for i := 1; i < len(vs); i++ {
			s.AddConstraint(vs[i-1], vs[i])
		}
		s.AddConstraint(vs[4], vs[2]) // closes a cycle
		s.EndBatch()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("intact system: %v", err)
		}
		return s, vs
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(s *System, vs []*Var)
	}{
		{"up-order predecessor edge", "points up-order", func(s *System, vs []*Var) {
			lo, hi := vs[0].DenseID(), vs[1].DenseID()
			if s.store.Before(hi, lo) {
				lo, hi = hi, lo
			}
			s.store.AddVar(lo, graph.PredV, hi)
		}},
		{"forwarding cycle", "does not end", func(s *System, vs []*Var) {
			a, b := vs[0].DenseID(), vs[1].DenseID()
			s.store.Forward(a, b)
			s.store.Forward(b, a)
		}},
		{"live count", "NumLive", func(s *System, vs []*Var) {
			w := s.find(vs[2].DenseID())
			for _, v := range vs {
				if id := v.DenseID(); id != w && s.store.Forwarded(id) {
					s.store.Forward(id, w) // forwarded again: counted dead twice
					return
				}
			}
			t.Fatal("no collapsed variable to re-forward")
		}},
		{"footprint listed twice", "twice", func(s *System, vs []*Var) {
			v := vs[0].DenseID()
			bs := s.retract.footprint[v]
			s.retract.footprint[v] = append(bs, bs[0])
		}},
		{"footprint entry missing", "not indexed", func(s *System, vs []*Var) {
			delete(s.retract.footprint, vs[0].DenseID())
		}},
		{"drain in flight", "drain in flight", func(s *System, vs []*Var) {
			s.pushOp(opVar, vs[0].DenseID(), opVar, vs[1].DenseID())
		}},
	} {
		s, vs := build()
		c.corrupt(s, vs)
		err := s.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
