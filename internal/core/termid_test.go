package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// renderLS renders every variable's least solution, element order
// included, so solves over distinct term pointers compare by content.
func renderLS(e *rtEnv) [][]string {
	out := make([][]string, len(e.vars))
	for i, v := range e.vars {
		for _, t := range e.sys.LeastSolution(v) {
			out[i] = append(out[i], t.String())
		}
	}
	return out
}

// sharedAtoms builds n nullary terms a0..a(n-1), each with its own
// constructor, followed by One, which every System shares.
func sharedAtoms(n int) []*Term {
	atoms := make([]*Term, 0, n+1)
	for i := 0; i < n; i++ {
		atoms = append(atoms, NewTerm(NewConstructor(fmt.Sprintf("a%d", i))))
	}
	return append(atoms, One.(*Term))
}

// TestTermIDsPerSystem names one set of *Term atoms in two Systems whose
// scripts first mention them in different orders, so each System interns
// them to its own ids. Batches of the two scripts interleave, and the
// second System is retractable and retracts one of its live batches after
// every fifth add. Each System's least solutions, element order included,
// must equal a solve of its own script (the surviving batches, for the
// retractable one) over freshly built terms.
func TestTermIDsPerSystem(t *testing.T) {
	const nVars, nTerms, nAtoms, nBatches = 24, 10, 8, 40
	differ := false
	for seed := int64(0); seed < 4; seed++ {
		for _, form := range []Form{SF, IF} {
			name := fmt.Sprintf("seed=%d/%v", seed, form)
			rng := rand.New(rand.NewSource(seed))
			atoms := sharedAtoms(nAtoms)
			nExprs := nTerms + len(atoms)
			specsA, specsB := genTermSpecs(rng, nTerms, nVars), genTermSpecs(rng, nTerms, nVars)
			batchesA, batchesB := genBatches(rng, nBatches, nVars, nExprs), genBatches(rng, nBatches, nVars, nExprs)
			optA := Options{Form: form, Cycles: CycleOnline, Seed: seed}
			optB := Options{Form: form, Cycles: CycleOnline, Seed: seed + 100}
			retractable := optB
			retractable.Retractable = true

			a := newRTEnv(optA, nVars, specsA)
			a.terms = append(a.terms, atoms...)
			b := newRTEnv(retractable, nVars, specsB)
			b.terms = append(b.terms, atoms...)
			ids := make([]uint64, nBatches)
			retracted := make([]bool, nBatches)
			for i := range batchesA {
				a.applyBatch(batchesA[i])
				ids[i] = b.applyBatch(batchesB[i])
				if i%5 != 4 {
					continue
				}
				j := rng.Intn(i + 1)
				for retracted[j] {
					j = (j + 1) % (i + 1)
				}
				if _, err := b.sys.RetractBatches([]uint64{ids[j]}); err != nil {
					t.Fatalf("%s: retract batch %d: %v", name, j, err)
				}
				retracted[j] = true
			}
			for _, at := range atoms {
				if a.sys.store.Intern(at) != b.sys.store.Intern(at) {
					differ = true
				}
			}

			refA := newRTEnv(optA, nVars, specsA)
			refA.terms = append(refA.terms, sharedAtoms(nAtoms)...)
			for _, batch := range batchesA {
				refA.applyBatch(batch)
			}
			refB := newRTEnv(optB, nVars, specsB)
			refB.terms = append(refB.terms, sharedAtoms(nAtoms)...)
			for i, batch := range batchesB {
				if !retracted[i] {
					refB.applyBatch(batch)
				}
			}
			for _, c := range []struct {
				who       string
				live, ref *rtEnv
			}{{"plain", a, refA}, {"retractable", b, refB}} {
				got, want := renderLS(c.live), renderLS(c.ref)
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s %s: LS(v%d) = %v, fresh solve %v", name, c.who, i, got[i], want[i])
					}
				}
				if g, w := c.live.sys.ErrorCount(), c.ref.sys.ErrorCount(); g != w {
					t.Fatalf("%s %s: %d errors, fresh solve %d", name, c.who, g, w)
				}
			}
		}
	}
	if !differ {
		t.Fatal("no shared atom got different ids in the two Systems: the test does not exercise per-System ids")
	}
}
