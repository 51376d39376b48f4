package walreplay

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"polce/internal/wal"
)

// decodeFrames turns fuzz input into a frame log over two sessions.
// Records are separated by NUL bytes, and empty records are skipped. A
// record's first byte is its header and the rest its text: an odd header
// puts the frame in session "a", an even one in "b", and a header with bit
// 0x20 clear makes it a retract frame. So 'a' and 'b' lead constraint
// frames and 'A' and 'B' lead retract frames.
func decodeFrames(data []byte) frameLog {
	var log frameLog
	for _, rec := range bytes.Split(data, []byte{0}) {
		if len(rec) == 0 {
			continue
		}
		session := "b"
		if rec[0]&1 != 0 {
			session = "a"
		}
		kind := wal.FrameConstraints
		if rec[0]&0x20 == 0 {
			kind = wal.FrameRetract
		}
		log.add(kind, session, string(rec[1:]))
	}
	return log
}

// FuzzReplay replays a decoded frame stream twice: Replay must not panic,
// and both replays must agree on the error and on every Manifest field.
// The seed corpus holds a retract-and-re-add stream, cross-session
// retracts and a frame that does not parse.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := decodeFrames(data)
		replay := func() (Manifest, error) {
			s, _, constraints, err := Replay(frames, opt)
			if err != nil {
				return Manifest{}, err
			}
			m := Fingerprint(s, 0)
			m.Options = OptionsMeta(opt)
			m.Frames = len(frames)
			m.LastSeq = uint64(len(frames))
			m.Constraints = constraints
			return m, nil
		}
		a, errA := replay()
		b, errB := replay()
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("replays disagree on the error: %v vs %v", errA, errB)
		}
		if d := a.Diff(b); len(d) != 0 {
			t.Fatalf("two replays of the same frames differ:\n%s", strings.Join(d, "\n"))
		}
	})
}
