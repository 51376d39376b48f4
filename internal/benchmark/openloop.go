package benchmark

import (
	"context"
	"time"
)

// sent is one scheduled request of an open loop and what became of it.
type sent struct {
	kind string // "write", "delete" or "read"
	id   string // X-Request-Id, the trace ID joining client and server spans
	ok   bool   // answered 2xx
	due  time.Time
	at   time.Time // when it actually went out
	done time.Time
}

// latency is the request's time from when it was due to its answer, so a
// stall is charged to every request it delayed, not only to the one that
// hit it.
func (r sent) latency() time.Duration { return r.done.Sub(r.due) }

// lag is how late the generator sent the request.
func (r sent) lag() time.Duration { return r.at.Sub(r.due) }

// openLoop issues request i at start + i·every until start + d, on one
// connection: one request in flight at a time, each sent when it is due or,
// when the previous one ran over, as soon as that one finishes. The
// schedule never waits for the system to catch up, so a slow answer makes
// later requests late rather than making the load lighter. send performs
// request i and reports its kind, request ID and whether it succeeded.
//
// A system too slow to work off its backlog would keep the loop running
// long past d; a quarter of d (and at least a second) after the end, the
// requests still unsent are recorded as failed, with the time they waited.
func openLoop(ctx context.Context, start time.Time, d, every time.Duration, send func(i int) (kind, id string, ok bool)) []sent {
	var out []sent
	end := start.Add(d)
	giveUp := end.Add(d/4 + time.Second)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(end) {
			return out
		}
		if now := time.Now(); now.After(giveUp) {
			out = append(out, sent{due: due, at: now, done: now})
			continue
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return out
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return out
		}
		at := time.Now()
		kind, id, ok := send(i)
		out = append(out, sent{kind: kind, id: id, ok: ok, due: due, at: at, done: time.Now()})
	}
}
