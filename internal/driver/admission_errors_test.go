package driver

import (
	"context"
	"database/sql"
	"errors"
	"testing"
	"time"

	apuama "apuama"
)

// TestShedErrorTypedAcrossSocket is the wire-protocol regression test
// for typed admission errors: a load-shed produced inside the server
// must arrive at a database/sql client still matching ErrOverloaded
// (with its retry-after hint), not as an opaque string.
func TestShedErrorTypedAcrossSocket(t *testing.T) {
	c, addr := startClusterCfg(t, apuama.Config{Nodes: 2, MaxConcurrent: 1, MaxQueue: 1}, tinySF)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Jam the admission gate from inside: one ticket holds the only
	// slot, one waiter fills the queue, so the driver's query is shed
	// with a queue-full overload error.
	_, _, eng, _ := c.Internals()
	adm := eng.Admission()
	tk, err := adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if tk2, err := adm.Acquire(context.Background(), 1); err == nil {
			tk2.Release()
		}
	}()
	// The waiter enqueues asynchronously; poll until it shows up.
	deadline := time.Now().Add(5 * time.Second)
	for adm.Snapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, qerr := db.Query("select count(*) from orders")
	if qerr == nil {
		t.Fatal("saturated query succeeded; want an overload shed")
	}
	if !errors.Is(qerr, apuama.ErrOverloaded) {
		t.Fatalf("error lost its type across the socket: %v", qerr)
	}
	if !apuama.Retryable(qerr) {
		t.Fatalf("shed error not retryable after the round trip: %v", qerr)
	}
	if apuama.RetryAfter(qerr) <= 0 {
		t.Fatalf("retry-after hint lost across the socket: %v", qerr)
	}
	tk.Release()
	<-queued

	// With the gate clear the same query succeeds — the shed really was
	// load, not a broken statement.
	var n int64
	if err := db.QueryRow("select count(*) from orders").Scan(&n); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if n != 1500 {
		t.Fatalf("count after drain: %d", n)
	}
}

// TestMemoryBudgetErrorTypedAcrossSocket drives a budget abort through
// the full stack: a budget too small for even the gather buffers fails
// every SVP query server-side, and the client still sees the typed
// (non-retryable) ErrMemoryBudget.
func TestMemoryBudgetErrorTypedAcrossSocket(t *testing.T) {
	_, addr := startClusterCfg(t, apuama.Config{Nodes: 2, MaxConcurrent: 4, MemoryBudget: 1024}, tinySF)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	_, qerr := db.Query("select count(*) from orders")
	if qerr == nil {
		t.Fatal("query under a 1KB memory budget succeeded")
	}
	if !errors.Is(qerr, apuama.ErrMemoryBudget) {
		t.Fatalf("error lost its type across the socket: %v", qerr)
	}
	if apuama.Retryable(qerr) {
		t.Fatalf("memory abort must not be retryable: %v", qerr)
	}
}
