package serve

import (
	"context"
	"errors"
	"net/http"

	"polce"
)

// ErrBadRequest is wrapped around client mistakes the solver never sees:
// malformed SCL, an unreadable body, an unknown variable name.
var ErrBadRequest = errors.New("serve: bad request")

// ErrUnknownVar is wrapped around queries for a variable no batch has
// introduced. It is a kind of bad request with its own status (404), so
// clients can distinguish "typo in the program" from "not defined yet".
var ErrUnknownVar = errors.New("serve: unknown variable")

// ErrNotFound is the catch-all for requests that match no route. It gets
// its own sentinel (rather than reusing ErrBadRequest) so the 404 carries
// kind "not_found" and unmatched traffic is distinguishable in logs.
var ErrNotFound = errors.New("serve: not found")

// ErrWALFailed means a constraint-log write failed after the batch was
// already admitted. The server poisons ingestion — every further write is
// refused with this error until a restart re-opens the log — because
// continuing to ack batches the log cannot record would break the
// "202 means durable" promise and leave a gap in the replayable stream.
// Reads are unaffected.
var ErrWALFailed = errors.New("serve: constraint log write failed; ingestion disabled until restart")

// statusTable is the one place the solver's typed errors meet HTTP: each
// sentinel's status and the kind string the JSON error body carries.
// Order matters only for readability; the sentinels are disjoint.
var statusTable = []struct {
	sentinel error
	code     int
	kind     string
}{
	{polce.ErrInconsistent, http.StatusConflict, "inconsistent"},
	{polce.ErrQueueFull, http.StatusServiceUnavailable, "queue_full"}, // + Retry-After
	{polce.ErrSolverClosed, http.StatusGone, "closed"},
	{polce.ErrUnknownBatch, http.StatusNotFound, "unknown_batch"},           // handle never issued or already retracted
	{polce.ErrNotRetractable, http.StatusNotImplemented, "not_retractable"}, // server runs without -retractable
	{ErrUnknownVar, http.StatusNotFound, "unknown_var"},
	{ErrNotFound, http.StatusNotFound, "not_found"},
	{ErrBadRequest, http.StatusBadRequest, "bad_request"},
	{ErrWALFailed, http.StatusInternalServerError, "wal_failed"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
	{context.Canceled, http.StatusServiceUnavailable, "canceled"}, // client went away / draining
}

// StatusOf maps an error to its HTTP status via the table; unrecognised
// errors are 500s.
func StatusOf(err error) int {
	code, _ := classify(err)
	return code
}

// classify finds err's row in the table: its status and the kind the JSON
// error body names, or 500 and "internal" when no sentinel matches.
func classify(err error) (code int, kind string) {
	for _, row := range statusTable {
		if errors.Is(err, row.sentinel) {
			return row.code, row.kind
		}
	}
	return http.StatusInternalServerError, "internal"
}
