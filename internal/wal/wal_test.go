package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func appendFrames(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		seq, err := l.Append(FrameConstraints, "s", fmt.Sprintf("cons c%d; c%d <= x%d", i, i, i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
}

// TestRoundTrip: frames written are the frames recovered, in order, with
// monotone sequence numbers, across a close/reopen cycle.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{Sync: SyncAlways})
	if len(rec.Frames) != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	appendFrames(t, l, 5)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	if len(rec2.Frames) != 5 || rec2.LastSeq != 5 || rec2.TruncatedBytes != 0 {
		t.Fatalf("recovered %d frames, lastSeq %d, truncated %d; want 5/5/0",
			len(rec2.Frames), rec2.LastSeq, rec2.TruncatedBytes)
	}
	for i, f := range rec2.Frames {
		if f.Seq != uint64(i+1) || f.Session != "s" {
			t.Fatalf("frame %d = %+v", i, f)
		}
		if want := fmt.Sprintf("cons c%d; c%d <= x%d", i+1, i+1, i+1); f.Text != want {
			t.Fatalf("frame %d text = %q, want %q", i, f.Text, want)
		}
	}
	// Appending continues the sequence.
	if seq, err := l2.Append(FrameConstraints, "s", "x1 <= x2"); err != nil || seq != 6 {
		t.Fatalf("continued append = seq %d, %v; want 6", seq, err)
	}
}

// TestTornTailTruncation covers the three crash signatures: a partial
// frame header, a partial payload, and a payload whose bytes were torn
// (CRC mismatch). Each must recover the intact prefix and drop the tail —
// never fail the open.
func TestTornTailTruncation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		wantFrames int
		tear       func(path string, t *testing.T)
	}{
		{"partial frame header", 3, func(path string, t *testing.T) { chop(t, path, 3) }},
		{"partial payload", 3, func(path string, t *testing.T) { chop(t, path, 12) }},
		{"torn payload bytes", 3, func(path string, t *testing.T) { flipLastByte(t, path) }},
		{"garbage appended", 4, func(path string, t *testing.T) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xff, 0x13, 0x37}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
			appendFrames(t, l, 4)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(filepath.Join(dir, logName), t)

			l2, rec := mustOpen(t, dir, Options{})
			if rec.TruncatedBytes == 0 {
				t.Fatal("tear not detected")
			}
			if len(rec.Frames) != tc.wantFrames || rec.LastSeq != uint64(tc.wantFrames) {
				t.Fatalf("recovered %d frames lastSeq %d, want the %d-frame prefix",
					len(rec.Frames), rec.LastSeq, tc.wantFrames)
			}
			// The torn tail is gone from disk: appends continue the intact
			// sequence and a further reopen is clean.
			next := uint64(tc.wantFrames + 1)
			if seq, err := l2.Append(FrameConstraints, "s", "x1 <= x3"); err != nil || seq != next {
				t.Fatalf("append after truncation = seq %d, %v; want %d", seq, err, next)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec3 := mustOpen(t, dir, Options{})
			if len(rec3.Frames) != tc.wantFrames+1 || rec3.TruncatedBytes != 0 {
				t.Fatalf("reopen after truncation: %d frames, truncated %d; want %d/0",
					len(rec3.Frames), rec3.TruncatedBytes, tc.wantFrames+1)
			}
		})
	}
}

// chop removes the last n bytes of the file.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// flipLastByte corrupts the final payload byte so the CRC fails.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirIsReadOnly: a standalone scan reports the torn tail without
// removing it.
func TestReadDirIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendFrames(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	chop(t, path, 2)

	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Frames) != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("ReadDir recovered %d frames, truncated %d", len(rec.Frames), rec.TruncatedBytes)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-2 {
		t.Fatalf("ReadDir modified the log: %d -> %d bytes", before.Size()-2, after.Size())
	}
}

// TestMetaPinning: the first open records the options; a matching reopen
// succeeds, a mismatched one fails with ErrMetaMismatch, and ReadMeta
// returns the recorded map.
func TestMetaPinning(t *testing.T) {
	dir := t.TempDir()
	meta := map[string]string{"form": "IF", "cycles": "Online", "seed": "1"}
	l, _ := mustOpen(t, dir, Options{Meta: meta})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got["form"] != "IF" || got["cycles"] != "Online" || got["seed"] != "1" {
		t.Fatalf("ReadMeta = %v", got)
	}

	if l2, _, err := Open(dir, Options{Meta: meta}); err != nil {
		t.Fatalf("matching reopen: %v", err)
	} else {
		l2.Close()
	}
	bad := map[string]string{"form": "SF", "cycles": "Online", "seed": "1"}
	if _, _, err := Open(dir, Options{Meta: bad}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("mismatched reopen = %v, want ErrMetaMismatch", err)
	}
	// A nil meta skips the check (read-only tooling).
	if l3, _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("meta-less reopen: %v", err)
	} else {
		l3.Close()
	}
}

// TestSyncPolicies pins the fsync accounting: always-mode callers sync per
// append, batch-mode shares syncs, off never syncs (but a clean Close
// still lands everything).
func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendFrames(t, l, 2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // idempotent: nothing dirty
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("syncs = %d, want 1 (second Sync saw a clean log)", got)
	}

	off, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncOff})
	if _, err := off.Append(FrameConstraints, "s", "cons a"); err != nil {
		t.Fatal(err)
	}
	if err := off.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := off.Syncs(); got != 0 {
		t.Fatalf("SyncOff synced %d times, want 0", got)
	}
}

// TestSequenceDiscontinuityIsATear: a frame whose sequence number does not
// continue the chain marks the tear even if its CRC is intact.
func TestSequenceDiscontinuityIsATear(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, _ := mustOpen(t, dirA, Options{Sync: SyncAlways})
	appendFrames(t, a, 2)
	a.Close()
	b, _ := mustOpen(t, dirB, Options{Sync: SyncAlways})
	appendFrames(t, b, 4)
	b.Close()

	// Graft the 4th frame of log B (seq 4) onto log A (last seq 2).
	bBytes, err := os.ReadFile(filepath.Join(dirB, logName))
	if err != nil {
		t.Fatal(err)
	}
	aBytes, err := os.ReadFile(filepath.Join(dirA, logName))
	if err != nil {
		t.Fatal(err)
	}
	recB, err := ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	// Locate frame 4's start: the intact prefix of B minus its last frame.
	last := recB.Frames[3]
	lastSize := int64(frameHeaderSize + payloadMinSize + len(last.Session) + len(last.Text))
	graft := bBytes[recB.Bytes-lastSize:]
	if err := os.WriteFile(filepath.Join(dirA, logName), append(aBytes, graft...), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Frames) != 2 || rec.TruncatedBytes != lastSize {
		t.Fatalf("recovered %d frames, truncated %d; want 2 frames and %d bytes dropped",
			len(rec.Frames), rec.TruncatedBytes, lastSize)
	}
}

// TestNotALog: a file that is not a constraint log fails loudly rather
// than being silently truncated to nothing.
func TestNotALog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a non-log file")
	}
}

// TestRetractFrameRoundTrip: retraction frames carry their kind, session
// and target list through a close/reopen cycle, interleaved with
// constraint frames in stream order.
func TestRetractFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendFrames(t, l, 2)
	seq, err := l.Append(FrameRetract, "s", "1")
	if err != nil || seq != 3 {
		t.Fatalf("retract append = seq %d, %v; want 3", seq, err)
	}
	if _, err := l.Append(FrameConstraints, "other", "cons d; d <= y"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(FrameRetract, "other", "2,4"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Frames) != 5 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d frames, truncated %d; want 5/0", len(rec.Frames), rec.TruncatedBytes)
	}
	want := []struct {
		kind    FrameKind
		session string
		text    string
	}{
		{FrameConstraints, "s", "cons c1; c1 <= x1"},
		{FrameConstraints, "s", "cons c2; c2 <= x2"},
		{FrameRetract, "s", "1"},
		{FrameConstraints, "other", "cons d; d <= y"},
		{FrameRetract, "other", "2,4"},
	}
	for i, w := range want {
		f := rec.Frames[i]
		if f.Kind != w.kind || f.Session != w.session || f.Text != w.text {
			t.Fatalf("frame %d = %+v, want %+v", i, f, w)
		}
	}
}

// TestTornTailMidRetract: a crash that tears the final retraction frame
// recovers the constraint prefix and drops the retraction — the batch it
// targeted stays live, exactly as if the DELETE had never been acked.
func TestTornTailMidRetract(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendFrames(t, l, 3)
	if _, err := l.Append(FrameRetract, "s", "2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	chop(t, path, 2) // tear inside the retract frame's payload

	l2, rec := mustOpen(t, dir, Options{})
	if len(rec.Frames) != 3 || rec.LastSeq != 3 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovered %d frames lastSeq %d truncated %d; want the 3-frame constraint prefix",
			len(rec.Frames), rec.LastSeq, rec.TruncatedBytes)
	}
	for _, f := range rec.Frames {
		if f.Kind != FrameConstraints {
			t.Fatalf("recovered a non-constraint frame: %+v", f)
		}
	}
	// The log is writable again and a re-issued retraction lands as seq 4.
	if seq, err := l2.Append(FrameRetract, "s", "2"); err != nil || seq != 4 {
		t.Fatalf("re-issued retraction = seq %d, %v; want 4", seq, err)
	}
}

// TestUnknownFrameKindIsATear: a payload claiming a kind this build does
// not know marks the tear point even with an intact CRC, so logs from a
// future format revision degrade to their understood prefix.
func TestUnknownFrameKindIsATear(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendFrames(t, l, 2)
	if _, err := l.Append(FrameRetract, "s", "1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The final frame's kind byte sits at payload offset 8; its payload is
	// 11 bytes of fixed header + 1 session byte + 1 text byte.
	kindOff := len(b) - 2 - payloadMinSize + 8
	b[kindOff] = byte(maxFrameKind) + 1
	// Rewrite the CRC over the edited payload, so the tear is detected by
	// the kind check specifically rather than a checksum mismatch.
	payload := b[len(b)-payloadMinSize-2:]
	binary.LittleEndian.PutUint32(b[len(b)-payloadMinSize-2-4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Frames) != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovered %d frames, truncated %d; want the 2-frame prefix dropped tail", len(rec.Frames), rec.TruncatedBytes)
	}
}

// TestV1LogRejected: a log written by the previous format revision fails
// the open with a descriptive error instead of being truncated to nothing.
func TestV1LogRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(oldMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a v1 log")
	}
	if !strings.Contains(err.Error(), "v1 constraint log") {
		t.Fatalf("v1 rejection error %q does not mention the format", err)
	}
}

// FuzzScanLog writes the fuzzed bytes after a valid header and checks the
// torn-tail scan end to end. ReadDir never panics and accounts for every
// byte: the intact prefix plus the torn tail is the whole file, and the
// intact frames are numbered 1..n. Open truncates the tail, the next
// Append continues the sequence, and a second scan finds no tear and the
// same frames plus the appended one. The committed corpus
// (testdata/fuzz/FuzzScanLog) holds an intact constraints+retract log, the
// same log with its last frame cut short, and one with a flipped CRC byte.
func FuzzScanLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), append([]byte(magic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		if size := int64(len(magic) + len(body)); rec.Bytes+rec.TruncatedBytes != size {
			t.Fatalf("intact %d + torn %d bytes, want the file size %d", rec.Bytes, rec.TruncatedBytes, size)
		}
		for i, fr := range rec.Frames {
			if fr.Seq != uint64(i+1) {
				t.Fatalf("frame %d has seq %d", i, fr.Seq)
			}
		}
		if rec.LastSeq != uint64(len(rec.Frames)) {
			t.Fatalf("LastSeq %d after %d frames", rec.LastSeq, len(rec.Frames))
		}

		l, _ := mustOpen(t, dir, Options{Sync: SyncOff})
		want := Frame{Seq: rec.LastSeq + 1, Kind: FrameRetract, Session: "s", Text: "1"}
		seq, err := l.Append(want.Kind, want.Session, want.Text)
		if err != nil || seq != want.Seq {
			t.Fatalf("Append after Open = seq %d, %v; want %d", seq, err, want.Seq)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		again, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("second ReadDir: %v", err)
		}
		if again.TruncatedBytes != 0 {
			t.Fatalf("second scan found a %d-byte torn tail", again.TruncatedBytes)
		}
		if !reflect.DeepEqual(again.Frames, append(rec.Frames, want)) {
			t.Fatalf("second scan frames = %+v, want %+v plus %+v", again.Frames, rec.Frames, want)
		}
	})
}
