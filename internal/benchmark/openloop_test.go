package benchmark

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stall must be charged to every request it delays: the requests due
// while the stalled one was in flight go out late, and their latency counts
// from when they were due, not from when they were finally sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		every = 10 * time.Millisecond
		stall = 80 * time.Millisecond
	)
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	client := srv.Client()

	start := time.Now().Add(5 * time.Millisecond)
	reqs := openLoop(context.Background(), start, 12*every, every, func(i int) (string, string, bool) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return "read", "", false
		}
		resp.Body.Close()
		return "read", "", resp.StatusCode == http.StatusNoContent
	})
	if len(reqs) != 12 {
		t.Fatalf("sent %d requests, want 12 (one per slot of the schedule)", len(reqs))
	}
	for i, r := range reqs {
		if !r.ok {
			t.Fatalf("request %d failed", i)
		}
		if want := start.Add(time.Duration(i) * every); !r.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, r.due.Sub(start), want.Sub(start))
		}
		if r.latency() < r.lag() || r.latency() < r.done.Sub(r.at) {
			t.Errorf("request %d: latency %v shorter than its lag %v or service time %v", i, r.latency(), r.lag(), r.done.Sub(r.at))
		}
	}
	// Request 2 hit the stall. Request 3 was due 10ms into it, so it went
	// out about 70ms late, and its latency includes that wait even though
	// the server answered it at once.
	if got := reqs[2].latency(); got < stall {
		t.Errorf("stalled request latency %v, want at least %v", got, stall)
	}
	if lag := reqs[3].lag(); lag < stall-every-5*time.Millisecond {
		t.Errorf("request after the stall went out %v late, want about %v", lag, stall-every)
	}
	if got := reqs[3].latency(); got < stall-every-5*time.Millisecond {
		t.Errorf("request after the stall has latency %v; counted from the send, not the due time", got)
	}
	// The loop does not slow the schedule down: the stall delayed the
	// requests due during it, and the last ones are back on time.
	if lag := reqs[11].lag(); lag > stall/2 {
		t.Errorf("last request still %v late; the schedule should have caught up", lag)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reqs := openLoop(ctx, time.Now(), time.Hour, time.Millisecond, func(i int) (string, string, bool) {
		if i == 4 {
			cancel()
		}
		return "read", "", true
	})
	if len(reqs) != 5 {
		t.Fatalf("sent %d requests after cancelling at the fifth, want 5", len(reqs))
	}
}
