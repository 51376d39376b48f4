// Package polce is the public API of the inclusion-constraint solver from
// Fähndrich, Foster, Su and Aiken, "Partial Online Cycle Elimination in
// Inclusion Constraint Graphs" (PLDI 1998): the top of the three-layer
// stack over the resolution engine (internal/core) and the graph storage
// layer (internal/core/graph).
//
// A Solver wraps one constraint system with a mutex, so one goroutine can
// ingest constraints while others take Snapshots and run least-solution
// queries against them; snapshots are immutable and read without locking.
// The package exports the whole constraint vocabulary (variables, terms,
// options, events), so clients need only this import. Long-running
// services should use the context-aware variants (AddConstraintContext,
// AddBatchContext, SnapshotContext), which observe cancellation between
// worklist drains and report typed errors (ErrSolverClosed,
// ErrInconsistent, ErrQueueFull) suitable for errors.Is / errors.As.
//
// The rest of the reproduction lives under internal/: the resolution
// engine with standard and inductive graph representations and partial
// online cycle elimination (internal/core), Andersen's points-to analysis
// for C with alias/MOD/escape clients (internal/andersen) over a small C
// front end (internal/cgen), the Steensgaard unification baseline
// (internal/steens), the synthetic benchmark generator (internal/progen),
// the analytical model of Section 5 (internal/model, internal/randgraph),
// the experiment harness that regenerates every table and figure
// (internal/bench), the paper's §7 future work — closure analysis for a
// functional language (internal/mlang, internal/cfa) — a textual
// constraint language for driving the solver standalone (internal/scl),
// and the snapshot-backed HTTP constraint service (internal/serve).
//
// Entry points: cmd/polce analyses one C file; cmd/polce-bench regenerates
// the paper's tables, figures, ablations and diagnostics; cmd/polce-solve
// runs the solver on .scl constraint programs; cmd/polce-serve serves the
// solver as a JSON HTTP API; cmd/polce-benchmark times four end-to-end
// workloads, the service and retraction included. The runnable examples
// under examples/ tour the API. The benchmarks in bench_test.go exercise
// one table or figure each.
package polce
