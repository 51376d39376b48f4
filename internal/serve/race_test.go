package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"polce"
	"polce/internal/wal"
)

// TestConcurrentQueriesRaceIngestion is the service-level race test: 8
// query goroutines hammer the read endpoints through real HTTP while one
// writer streams constraint batches in, all against the same solver. Under
// -race this exercises the snapshot epoch guard, the write stream's lock
// and the queue; functionally each reader asserts the snapshot version it
// observes never goes backwards.
func TestConcurrentQueriesRaceIngestion(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Seed the program so readers always have a variable to query.
	if resp, body := postSCL(t, hs.URL, "cons a0\na0 <= v0", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch = %d %v", resp.StatusCode, body)
	}

	const (
		readers  = 8
		batches  = 40
		duration = 300 * time.Millisecond
	)
	var (
		stop    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)

	// The writer: one goroutine growing the chain a batch at a time, each
	// batch synchronous so the queue never saturates and every write lands.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 1; i <= batches; i++ {
			prog := fmt.Sprintf("cons a%d\na%d <= v%d; v%d <= v%d", i, i, i, i-1, i)
			resp, err := http.Post(hs.URL+"/v1/constraints/default?wait=1", "text/plain", strings.NewReader(prog))
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("writer batch %d: status %d", i, resp.StatusCode)
				return
			}
		}
		time.Sleep(duration) // let readers run against the finished graph too
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion float64
			for !stop.Load() {
				var body map[string]any
				var resp *http.Response
				switch queries.Add(1) % 3 {
				case 0:
					resp, body = getJSON(t, hs.URL+"/v1/snapshot/default")
				case 1:
					resp, body = getJSON(t, hs.URL+"/v1/least-solution/default/v0")
				default:
					resp, body = getJSON(t, hs.URL+"/v1/points-to/default/v0")
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: status %d body %v", r, resp.StatusCode, body)
					return
				}
				v := body["version"].(float64)
				if v < lastVersion {
					t.Errorf("reader %d: snapshot version went backwards: %v -> %v", r, lastVersion, v)
					return
				}
				lastVersion = v
			}
		}(r)
	}
	wg.Wait()

	// The final least solution of the chain head holds every atom.
	resp, body := getJSON(t, hs.URL+fmt.Sprintf("/v1/least-solution/default/v%d", batches))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final query = %d %v", resp.StatusCode, body)
	}
	if got := len(body["terms"].([]any)); got != batches+1 {
		t.Fatalf("LS(v%d) has %d terms, want %d", batches, got, batches+1)
	}
	t.Logf("%d queries raced %d ingestion batches", queries.Load(), batches)
}

// TestGracefulShutdown drains a server with a loaded queue and an in-flight
// synchronous request: the in-flight request must complete successfully,
// every queued batch must be applied, and once the listener is down new
// connections must be refused.
func TestGracefulShutdown(t *testing.T) {
	solver := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 1})
	s := New(Config{Solver: solver, QueueDepth: 128})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Load the queue: async batches first, then one synchronous request
	// that is necessarily still in flight until the whole queue drains.
	post := func(prog, query string) (*http.Response, error) {
		return http.Post(base+"/v1/constraints/default"+query, "text/plain", strings.NewReader(prog))
	}
	if resp, err := post("cons a\na <= seed", "?wait=1"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: %v %v", err, resp)
	}
	const queued = 30
	for i := 0; i < queued; i++ {
		var b strings.Builder
		for j := 0; j < 50; j++ {
			fmt.Fprintf(&b, "a <= q%d_%d\n", i, j)
		}
		resp, err := post(b.String(), "")
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued batch %d: %v %v", i, err, resp)
		}
		resp.Body.Close()
	}
	inflight := make(chan error, 1)
	go func() {
		resp, err := post("a <= last", "?wait=1")
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request finished with %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(10 * time.Millisecond) // let the in-flight POST reach the server

	// Drain exactly like cmd/polce-serve: stop the listener and wait for
	// in-flight requests, then flush the queue and close the solver.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		t.Fatalf("http drain: %v", err)
	}
	if err := s.Shutdown(drainCtx); err != nil {
		t.Fatalf("queue drain: %v", err)
	}

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if got := s.QueueLen(); got != 0 {
		t.Fatalf("queue not drained: %d batches left", got)
	}
	// seed 1 + queued*50 + in-flight 1 constraints all applied.
	if want := int64(1 + queued*50 + 1); s.Ingested() != want {
		t.Fatalf("ingested = %d, want %d", s.Ingested(), want)
	}
	if !solver.Closed() {
		t.Fatal("solver not closed after drain")
	}

	// The listener is gone: new connections are refused.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("expected connection error after shutdown, got a response")
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Logf("post-shutdown dial failed as expected (non-ECONNREFUSED): %v", err)
	}
}

// TestEnqueueShutdownRace is the regression test for the accepted-then-lost
// race: enqueue used to check draining and then send to the queue without
// holding anything across the two, so a batch accepted in the window after
// Shutdown's flag flip but before the ingester's final empty-queue poll was
// silently dropped — its async client kept a 202 for nothing and its
// ?wait=1 client stalled to the deadline. The fix must guarantee that every
// batch accept returns a job for is either applied before the drain
// completes or resolved with ErrSolverClosed, promptly. Rounds of writers
// race Shutdown directly at the accept level (no HTTP) to maximise
// interleavings under -race.
func TestEnqueueShutdownRace(t *testing.T) {
	const (
		rounds  = 25
		writers = 8
		tries   = 30
	)
	for round := 0; round < rounds; round++ {
		solver := polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: int64(round)})
		s := New(Config{Solver: solver, QueueDepth: 8})

		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			accepted []*ingestJob
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < tries; i++ {
					job, err := s.accept(context.Background(), wal.FrameConstraints, s.cfg.WALSession, fmt.Sprintf("a%d_%d <= b%d_%d", w, i, w, i), nil)
					switch {
					case err == nil:
						mu.Lock()
						accepted = append(accepted, job)
						mu.Unlock()
					case errors.Is(err, polce.ErrQueueFull):
						// Backpressure, not loss: the batch was refused
						// before anything mutated.
					case errors.Is(err, polce.ErrSolverClosed):
						return // drained: no further accepts can succeed
					default:
						t.Errorf("round %d writer %d: accept = %v", round, w, err)
						return
					}
				}
			}(w)
		}
		// Shut down while the writers are mid-hammer.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		cancel()
		wg.Wait()

		// Every accepted job resolved: applied, or refused with
		// ErrSolverClosed. A job whose done channel never fires is the bug.
		var applied int64
		for i, job := range accepted {
			select {
			case res := <-job.done:
				switch {
				case res.err == nil:
					applied += int64(res.applied)
				case errors.Is(res.err, polce.ErrSolverClosed):
					// accepted but drained: the waiter was told, not stalled
				default:
					t.Fatalf("round %d: job %d resolved with %v", round, i, res.err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: job %d of %d never resolved — accepted batch lost",
					round, i, len(accepted))
			}
		}
		if got := s.Ingested(); got != applied {
			t.Fatalf("round %d: solver ingested %d constraints but jobs reported %d applied",
				round, got, applied)
		}
		if !solver.Closed() {
			t.Fatalf("round %d: solver not closed after Shutdown", round)
		}
	}
}
