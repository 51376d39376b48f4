package walreplay

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"polce/internal/wal"
)

// Verify audits the constraint log in dir (the -wal directory of a
// polce-serve run): it replays the log standalone — through a Stream,
// the type the server writes through, under the options pinned in the
// log's meta — and fingerprints the recovered graph: version, partition
// signature, up to 64 sampled least solutions, mutation counters. The
// manifest lives at manifestPath, or <dir>/manifest.json when that is
// empty. On the first run the fingerprint is recorded as the manifest; on
// later runs it is compared field by field, and any divergence (a lost
// frame, a reordered batch, a mismatched seed) fails with the exact
// mismatches.
// Replay is read-only on the log: a torn tail is reported, not truncated.
func Verify(out io.Writer, dir, manifestPath string) error {
	meta, err := wal.ReadMeta(dir)
	if err != nil {
		return fmt.Errorf("reading log meta: %w", err)
	}
	opt, err := OptionsFromMeta(meta)
	if err != nil {
		return err
	}
	rec, err := wal.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("scanning log: %w", err)
	}
	fmt.Fprintf(out, "wal-verify: %s\n", dir)
	fmt.Fprintf(out, "  options:  form=%s cycles=%s seed=%s\n", meta["form"], meta["cycles"], meta["seed"])
	fmt.Fprintf(out, "  log:      %d frames, %d bytes, last seq %d\n", len(rec.Frames), rec.Bytes, rec.LastSeq)
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(out, "  torn tail: %d trailing bytes are not intact frames (a restart with -wal would truncate them)\n",
			rec.TruncatedBytes)
	}

	solver, _, constraints, err := Replay(rec.Frames, opt)
	if err != nil {
		return err
	}
	m := Fingerprint(solver, 64)
	m.Options = meta
	m.Frames = len(rec.Frames)
	m.LastSeq = rec.LastSeq
	m.Constraints = constraints
	fmt.Fprintf(out, "  replayed: %d constraints -> version %d, %d vars, %d errors\n",
		constraints, m.Version, m.Vars, m.Errors)
	if m.Retractions > 0 {
		fmt.Fprintf(out, "  retracted: %d batches (cone %d vars, %d constraints re-drained)\n",
			m.Retractions, m.RetractConeVars, m.RetractReplayed)
	}
	fmt.Fprintf(out, "  partition: %s (%d LS samples)\n", m.PartitionSig, len(m.Samples))

	path := manifestPath
	if path == "" {
		path = filepath.Join(dir, "manifest.json")
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// Record mode: this run becomes the reference.
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("recording manifest: %w", err)
		}
		fmt.Fprintf(out, "  recorded manifest: %s\n", path)
		return nil
	}
	if err != nil {
		return fmt.Errorf("reading manifest: %w", err)
	}
	var want Manifest
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("decoding manifest %s: %w", path, err)
	}
	if diffs := want.Diff(m); len(diffs) != 0 {
		fmt.Fprintf(out, "  MISMATCH against %s:\n", path)
		for _, d := range diffs {
			fmt.Fprintf(out, "    %s\n", d)
		}
		return fmt.Errorf("recovered graph diverges from manifest %s in %d field(s)", path, len(diffs))
	}
	fmt.Fprintf(out, "  manifest OK: recovered graph matches %s\n", path)
	return nil
}
