package walreplay

import (
	"fmt"
	"strings"
	"testing"

	"polce"
	"polce/internal/scl"
	"polce/internal/wal"
)

const clusters, size = 6, 6

var opt = polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 5, Retractable: true}

// clusterTexts returns the constructor declarations and one SCL batch per
// cluster: an atom flows into a chain whose tail closes a cycle back into
// it, and every other cluster takes a link from its predecessor's tail, so
// retracting a cluster also replays a surviving neighbour.
func clusterTexts() (decls string, texts []string) {
	v := func(c, i int) string { return fmt.Sprintf("c%d_v%d", c, i) }
	var d strings.Builder
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&d, "cons a%d\n", c)
		var b strings.Builder
		fmt.Fprintf(&b, "a%d <= %s\n", c, v(c, 0))
		for i := 1; i < size; i++ {
			fmt.Fprintf(&b, "%s <= %s\n", v(c, i-1), v(c, i))
		}
		fmt.Fprintf(&b, "%s <= %s\n", v(c, size-1), v(c, 2))
		if c%2 == 1 {
			fmt.Fprintf(&b, "%s <= %s\n", v(c-1, size-1), v(c, 1))
		}
		texts = append(texts, b.String())
	}
	return d.String(), texts
}

// frameLog numbers frames the way the log does: sequence numbers from 1
// in append order.
type frameLog []wal.Frame

func (l *frameLog) add(kind wal.FrameKind, session, text string) uint64 {
	seq := uint64(len(*l) + 1)
	*l = append(*l, wal.Frame{Seq: seq, Kind: kind, Session: session, Text: text})
	return seq
}

// fromScratch solves the clusters listed in apply, in that order, on a
// non-retractable solver. Every cluster is lowered first, in cluster
// order, so variables and terms are created in the same order as in a
// replay that logged the clusters in that order.
func fromScratch(t *testing.T, apply []int) *polce.Solver {
	t.Helper()
	decls, texts := clusterTexts()
	refOpt := opt
	refOpt.Retractable = false
	ref := polce.New(refOpt)
	f := scl.MustParse("")
	b := scl.NewBinder(f, ref)
	if _, err := f.ParseAppend(decls); err != nil {
		t.Fatal(err)
	}
	lowered := make([][]polce.Constraint, len(texts))
	for c, text := range texts {
		cs, err := f.ParseAppend(text)
		if err != nil {
			t.Fatal(err)
		}
		lowered[c] = b.Lower(cs)
	}
	for _, c := range apply {
		ref.AddBatch(lowered[c])
	}
	return ref
}

// TestReplayRetractReaddMatchesFromScratch replays a log that retracts a
// cluster and submits it again, and compares the recovered graph with a
// from-scratch solve of the surviving batches in their batch order: the
// state must match exactly, and must not when a surviving batch is left
// out of the reference.
func TestReplayRetractReaddMatchesFromScratch(t *testing.T) {
	decls, texts := clusterTexts()
	var log frameLog
	log.add(wal.FrameConstraints, "s", decls)
	seqs := make([]uint64, clusters)
	for c, text := range texts {
		seqs[c] = log.add(wal.FrameConstraints, "s", text)
	}
	log.add(wal.FrameRetract, "s", FormatRetractText([]uint64{seqs[2]}))
	log.add(wal.FrameConstraints, "s", texts[2])

	live, _, constraints, err := Replay(log, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := live.Stats(); st.Retractions != 1 || st.RetractReplayed == 0 {
		t.Fatalf("replay ran %d retractions replaying %d constraints; want 1 replaying a neighbour", st.Retractions, st.RetractReplayed)
	}
	wantConstraints := 0
	for _, text := range append(texts, texts[2]) {
		wantConstraints += strings.Count(text, "<=")
	}
	if constraints != wantConstraints {
		t.Fatalf("replay applied %d constraints, want %d", constraints, wantConstraints)
	}
	got := Fingerprint(live, 0)

	if d := got.StateDiff(Fingerprint(fromScratch(t, []int{0, 1, 3, 4, 5, 2}), 0)); len(d) != 0 {
		t.Fatalf("retract-then-re-add diverges from a from-scratch solve of the survivors:\n%s", strings.Join(d, "\n"))
	}
	if d := got.StateDiff(Fingerprint(fromScratch(t, []int{0, 1, 3, 5, 2}), 0)); len(d) == 0 {
		t.Fatal("StateDiff is empty against a reference missing cluster 4's batch")
	}
}

// TestReplaySkipsInvalidRetract pins the replay of retract frames whose
// DELETE failed live — a target of another session, or one already
// retracted: each retracts nothing, so the replayed graph and its history
// counters equal a replay of the log without them.
func TestReplaySkipsInvalidRetract(t *testing.T) {
	decls, texts := clusterTexts()
	var with, without frameLog
	for _, l := range []*frameLog{&with, &without} {
		l.add(wal.FrameConstraints, "s", decls)
	}
	var seqs []uint64
	for _, text := range texts {
		seqs = append(seqs, with.add(wal.FrameConstraints, "s", text))
		without.add(wal.FrameConstraints, "s", text)
	}
	with.add(wal.FrameRetract, "other", FormatRetractText([]uint64{seqs[1]}))
	with.add(wal.FrameRetract, "s", FormatRetractText([]uint64{seqs[3]}))
	with.add(wal.FrameRetract, "s", FormatRetractText([]uint64{seqs[3], seqs[4]}))
	without.add(wal.FrameRetract, "s", FormatRetractText([]uint64{seqs[3]}))

	a, _, _, err := Replay(with, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := Replay(without, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := Fingerprint(a, 0).Diff(Fingerprint(b, 0)); len(d) != 0 {
		t.Fatalf("invalid retract frames changed the replay:\n%s", strings.Join(d, "\n"))
	}
	if got := a.Stats().Retractions; got != 1 {
		t.Fatalf("replay ran %d retractions, want 1", got)
	}
}

// TestMetaAndRetractTextRoundTrip checks that the replay-relevant options
// and retract frame texts survive their log encodings: every form under
// every policy a log can record (a retractable solver forbids periodic
// sweeps), while the oracle policy, which no log can supply an Oracle
// for, is rejected.
func TestMetaAndRetractTextRoundTrip(t *testing.T) {
	for _, form := range []polce.Form{polce.SF, polce.IF} {
		for _, cycles := range []polce.CyclePolicy{polce.CycleNone, polce.CycleOnline, polce.CycleOnlineIncreasing, polce.CyclePeriodic} {
			for _, seed := range []int64{-3, 5, 1 << 40} {
				o := polce.Options{Form: form, Cycles: cycles, Seed: seed, Retractable: cycles != polce.CyclePeriodic && seed > 0}
				got, err := OptionsFromMeta(OptionsMeta(o))
				if err != nil {
					t.Fatal(err)
				}
				if got.Form != o.Form || got.Cycles != o.Cycles || got.Seed != o.Seed || got.Retractable != o.Retractable {
					t.Fatalf("options %+v came back as %+v", o, got)
				}
			}
		}
	}
	for _, meta := range []map[string]string{
		OptionsMeta(polce.Options{Form: polce.IF, Cycles: polce.CycleOracle, Seed: 1}),
		{"form": "XF", "cycles": "Online", "seed": "1"},
	} {
		if got, err := OptionsFromMeta(meta); err == nil {
			t.Fatalf("meta %v accepted as %+v", meta, got)
		}
	}
	for _, seqs := range [][]uint64{nil, {7}, {3, 12, 40}} {
		got, err := ParseRetractText(FormatRetractText(seqs))
		if err != nil || fmt.Sprint(got) != fmt.Sprint(seqs) {
			t.Fatalf("retract text %v came back as %v, %v", seqs, got, err)
		}
	}
	if _, err := ParseRetractText("3,x"); err == nil {
		t.Fatal("malformed retract text accepted")
	}
}
