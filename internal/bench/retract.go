package bench

import (
	"fmt"
	"io"
	"time"

	"polce"
	"polce/internal/walreplay"
)

// RetractOptions configures RunRetract.
type RetractOptions struct {
	// Clusters is the number of constraint batches; each batch is one
	// mostly-independent cluster of variables, so the dirty cone of a
	// retraction is a locality measurement, not the whole graph. Zero
	// means 64.
	Clusters int
	// ClusterSize is the number of variables per cluster. Zero means 12.
	ClusterSize int
	// Frac is the fraction of batches retracted (every ⌈1/Frac⌉-th batch,
	// deterministically). Zero means 0.10.
	Frac float64
	// Seed is the solver's variable-order seed.
	Seed int64
}

func (o RetractOptions) withDefaults() RetractOptions {
	if o.Clusters <= 0 {
		o.Clusters = 64
	}
	if o.ClusterSize <= 0 {
		o.ClusterSize = 12
	}
	if o.Frac <= 0 {
		o.Frac = 0.10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// retractWorkload builds the clustered batch list against s: each batch
// seeds its cluster with an atom, chains the cluster's variables, closes a
// small cycle, and every third cluster links back into its predecessor —
// enough entanglement that some retractions must replay a surviving
// neighbour, as real incremental workloads do. Batches whose index keep
// rejects are constructed but not applied — every variable and constructor
// is still created in the original order, so two runs with different keeps
// share the seeded variable order o(·). Skipped batches report id 0.
func retractWorkload(s *polce.Solver, o RetractOptions, keep func(c int) bool) []polce.BatchID {
	vars := make([][]*polce.Var, o.Clusters)
	for c := range vars {
		vars[c] = make([]*polce.Var, o.ClusterSize)
		for i := range vars[c] {
			vars[c][i] = s.Fresh(fmt.Sprintf("c%d_v%d", c, i))
		}
	}
	ids := make([]polce.BatchID, o.Clusters)
	for c := 0; c < o.Clusters; c++ {
		atom := polce.NewTerm(polce.NewConstructor(fmt.Sprintf("a%d", c)))
		batch := []polce.Constraint{{L: atom, R: vars[c][0]}}
		for i := 1; i < o.ClusterSize; i++ {
			batch = append(batch, polce.Constraint{L: vars[c][i-1], R: vars[c][i]})
		}
		// A small internal cycle exercises collapse bookkeeping.
		batch = append(batch, polce.Constraint{L: vars[c][o.ClusterSize-1], R: vars[c][o.ClusterSize/2]})
		if c%3 == 2 {
			batch = append(batch, polce.Constraint{L: vars[c-1][o.ClusterSize-1], R: vars[c][0]})
		}
		if keep(c) {
			ids[c] = s.AddBatch(batch)
		}
	}
	return ids
}

// RunRetract measures the tentpole claim end to end: on a clustered
// instance, retracting a fraction of the batches re-drains only each
// retraction's dirty cone — a small slice of the graph — rather than
// re-solving from scratch, and the surviving state is bit-identical to a
// from-scratch solve of the surviving batches. The cone sizes come from
// the solver's own retraction telemetry counters.
func RunRetract(w io.Writer, o RetractOptions) error {
	o = o.withDefaults()
	opt := polce.Options{
		Form: polce.IF, Cycles: polce.CycleOnline,
		Seed: o.Seed, Retractable: true,
	}

	s := polce.New(opt)
	buildStart := time.Now()
	ids := retractWorkload(s, o, func(int) bool { return true })
	buildTime := time.Since(buildStart)

	stride := int(1.0/o.Frac + 0.5)
	if stride < 1 {
		stride = 1
	}
	var targets []polce.BatchID
	retracted := make(map[polce.BatchID]bool)
	for c := 0; c < o.Clusters; c += stride {
		targets = append(targets, ids[c])
		retracted[ids[c]] = true
	}

	fmt.Fprintf(w, "retract: %d clusters x %d vars, frac %.2f (%d batches retracted), seed %d\n",
		o.Clusters, o.ClusterSize, o.Frac, len(targets), o.Seed)
	fmt.Fprintf(w, "  build:    %d batches, %d vars, %d edge attempts in %s\n",
		o.Clusters, s.NumCreated(), s.Stats().Work, buildTime.Round(time.Microsecond))

	var (
		retractTime time.Duration
		dirtySum    int64
		replayedCs  int64
	)
	for _, id := range targets {
		rep, err := s.RetractBatch(id)
		if err != nil {
			return fmt.Errorf("retract %d: %w", id, err)
		}
		retractTime += rep.Duration
		dirtySum += int64(rep.DirtyVars)
		replayedCs += int64(rep.ReplayedConstraints)
	}
	stats := s.Stats()
	totalVars := int64(s.NumCreated())
	coneFrac := float64(dirtySum) / float64(totalVars*int64(len(targets)))
	fmt.Fprintf(w, "  retract:  %d batches in %s; avg cone %.1f vars (%.1f%% of %d), %d constraints replayed\n",
		len(targets), retractTime.Round(time.Microsecond),
		float64(dirtySum)/float64(len(targets)), coneFrac*100, totalVars, replayedCs)
	fmt.Fprintf(w, "  counters: retracts=%d cone_vars=%d replayed=%d\n",
		stats.Retractions, stats.RetractConeVars, stats.RetractReplayed)
	if stats.Retractions != int64(len(targets)) || stats.RetractConeVars != dirtySum {
		return fmt.Errorf("telemetry counters disagree with reports: retracts=%d cone_vars=%d, want %d/%d",
			stats.Retractions, stats.RetractConeVars, len(targets), dirtySum)
	}
	// The point of the partial re-drain: the summed cones must stay well
	// under re-solving the whole graph once per retraction.
	if coneFrac >= 0.5 {
		return fmt.Errorf("dirty cones cover %.0f%% of the graph per retraction — partial re-drain is not partial", coneFrac*100)
	}

	// Reference: a from-scratch solve of the surviving batches, in order,
	// on a fresh solver with the same options but no retraction tracking.
	refOpt := opt
	refOpt.Retractable = false
	ref := polce.New(refOpt)
	retractWorkload(ref, o, func(c int) bool { return !retracted[ids[c]] })
	// Compare state, not history: the retract run's cumulative counters
	// (version, work, cycle searches, retraction telemetry) record the
	// retractions themselves and legitimately exceed the reference's.
	if diffs := walreplay.Fingerprint(s, 64).StateDiff(walreplay.Fingerprint(ref, 64)); len(diffs) != 0 {
		fmt.Fprintf(w, "  MISMATCH against from-scratch solve of survivors:\n")
		for _, d := range diffs {
			fmt.Fprintf(w, "    %s\n", d)
		}
		return fmt.Errorf("retracted graph diverges from reference in %d field(s)", len(diffs))
	}
	fmt.Fprintf(w, "  verify:   OK — bit-identical to a from-scratch solve of the %d surviving batches\n",
		o.Clusters-len(targets))
	return nil
}
