package admission

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is the sentinel every load-shedding rejection matches:
// the cluster refused to queue the query because it could not have
// started before its deadline, the wait queue was full, or the bounded
// queue wait ran out. Shed queries did no work; retrying after the
// attached hint is always safe.
var ErrOverloaded = errors.New("cluster overloaded")

// OverloadError is the typed shed error. It wraps ErrOverloaded (so
// errors.Is(err, ErrOverloaded) holds) and carries a retry-after hint —
// the admission gate's estimate of when a slot will be free.
type OverloadError struct {
	// RetryAfter estimates how long the client should back off before
	// retrying (the gate's queue-drain estimate at shed time).
	RetryAfter time.Duration
	// Reason is the shed class: "queue-full", "deadline" (the context
	// deadline would have expired before the estimated start) or
	// "queue-timeout" (the bounded wait ran out).
	Reason string
	// Detail preserves a server-rendered message verbatim when the error
	// was reconstructed from the wire (see Remote).
	Detail string
}

// Error renders the shed reason and the retry-after hint.
func (e *OverloadError) Error() string {
	if e.Detail != "" {
		return e.Detail
	}
	return fmt.Sprintf("cluster overloaded (%s): retry after %v", e.Reason, e.RetryAfter)
}

// Is makes every OverloadError match the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrMemoryBudget is the sentinel a query matches when growing its
// memory reservation would exceed the cluster-wide budget and the debt
// was too large (or the bounded wait too long) to ride out.
var ErrMemoryBudget = errors.New("query memory budget exceeded")

// MemoryError is the typed budget-abort error, wrapping ErrMemoryBudget.
type MemoryError struct {
	Requested int64 // bytes the failed Grow asked for
	Held      int64 // bytes the query already held
	Budget    int64 // the cluster-wide budget
	// Detail preserves a server-rendered message verbatim when the error
	// was reconstructed from the wire (see Remote).
	Detail string
}

// Error renders the request against the budget.
func (e *MemoryError) Error() string {
	if e.Detail != "" {
		return e.Detail
	}
	return fmt.Sprintf("query memory budget exceeded: need %d more bytes (holding %d) against a %d-byte budget",
		e.Requested, e.Held, e.Budget)
}

// Is makes every MemoryError match the ErrMemoryBudget sentinel.
func (e *MemoryError) Is(target error) bool { return target == ErrMemoryBudget }

// ErrSlowQuery marks a query aborted by the slow-query killer: it
// exceeded KillMultiple × its class budget of wall-clock time and was
// cancelled cooperatively (the per-batch ctx checks in the node engines'
// scans observe the cancellation).
var ErrSlowQuery = errors.New("slow query killed")

// Retryable reports whether err is a load-shedding rejection the client
// should retry after backing off. Memory-budget aborts and slow-query
// kills are deliberately not retryable: resubmitting the same query
// would hit the same budget.
func Retryable(err error) bool { return errors.Is(err, ErrOverloaded) }

// RetryAfter extracts the shed error's retry-after hint (0 when err
// carries none).
func RetryAfter(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Wire codes for the typed admission errors. The wire protocol ships
// errors as strings; these structured codes ride alongside the message
// in the trailer frame so a client can rebuild the typed error and
// errors.Is works across the socket (see internal/proto).
const (
	CodeOverloaded   = "overloaded"
	CodeMemoryBudget = "memory-budget"
	CodeSlowQuery    = "slow-query"
)

// Code classifies err for the wire: its structured code and retry-after
// hint. Errors with no admission class return "".
func Code(err error) (string, time.Duration) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded, RetryAfter(err)
	case errors.Is(err, ErrMemoryBudget):
		return CodeMemoryBudget, 0
	case errors.Is(err, ErrSlowQuery):
		return CodeSlowQuery, 0
	}
	return "", 0
}

// Remote rebuilds a typed admission error from its wire code, keeping
// the server-rendered message verbatim. Unknown codes return nil — the
// caller falls back to a plain string error.
func Remote(code, msg string, retryAfter time.Duration) error {
	switch code {
	case CodeOverloaded:
		return &OverloadError{RetryAfter: retryAfter, Detail: msg}
	case CodeMemoryBudget:
		return &MemoryError{Detail: msg}
	case CodeSlowQuery:
		return &remoteError{msg: msg, sentinel: ErrSlowQuery}
	}
	return nil
}

// remoteError carries a verbatim remote message while matching a local
// sentinel through Unwrap.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }
