// Serve: talking to the constraint query service over HTTP.
//
// Starts a polce-serve instance in-process (so the example is
// self-contained — against a deployed service, replace the base URL),
// streams two SCL constraint batches into it, and queries least solutions
// and points-to sets back out while ingestion stays live. This is API v1
// exactly as curl sees it, against the "default" session; see the README's
// Serving section. Any non-2xx answer is fatal (exit 1).
//
// Run with: go run ./examples/serve
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"polce"
	"polce/internal/serve"
)

func main() {
	// An in-process service: one online-IF solver behind the HTTP API.
	srv := serve.New(serve.Config{
		Solver: polce.New(polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 42}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// Batch one: atoms flowing through a variable chain. ?wait=1 blocks
	// until the batch is applied and reports the graph version.
	post(base, `
		cons apple; cons pear
		apple <= X; pear <= X
		X <= Y; Y <= Z
	`)
	get(base, "/v1/least-solution/default/Z")

	// Batch two grows the same constraint program: a ref-term makes P a
	// pointer to X, and a cycle Y <= X that online elimination collapses.
	post(base, `
		cons ref(+)
		ref(X) <= P
		Y <= X
	`)
	get(base, "/v1/points-to/default/P")
	get(base, "/v1/snapshot/default")

	// Drain exactly like polce-serve does on SIGTERM: finish in-flight
	// requests, flush the ingestion queue, close the solver.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fail(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fail(err)
	}
	fmt.Printf("\ndrained after %d constraints\n", srv.Ingested())
}

// post sends one SCL batch to the default session and prints the reply.
func post(base, program string) {
	const path = "/v1/constraints/default"
	resp, err := http.Post(base+path+"?wait=1", "text/plain", strings.NewReader(program))
	if err != nil {
		fail(err)
	}
	show("POST", path, resp)
}

// get queries one read endpoint and prints the JSON.
func get(base, path string) {
	resp, err := http.Get(base + path)
	if err != nil {
		fail(err)
	}
	show("GET", path, resp)
}

// show prints a response's status and compacted JSON body, and fails on
// any non-2xx status.
func show(method, path string, resp *http.Response) {
	defer resp.Body.Close()
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		fail(err)
	}
	out, _ := json.Marshal(v)
	fmt.Printf("%-4s %-28s -> %s %s\n", method, path, resp.Status, out)
	if resp.StatusCode/100 != 2 {
		fail(fmt.Errorf("%s %s: %s", method, path, resp.Status))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "serve example:", err)
	os.Exit(1)
}
