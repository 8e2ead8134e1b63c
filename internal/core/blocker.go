package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// blocker is Apuama's consistency mechanism (§3): before SVP sub-queries
// are dispatched, all replicas must be at the same transaction count;
// update transactions arriving meanwhile are held at the gate. Once every
// sub-query is dispatched the gate reopens — MVCC isolation lets the
// updates run while sub-queries are still executing, "thereby improving
// throughput".
type blocker struct {
	mu       sync.Mutex
	cond     *sync.Cond
	blocks   int   // active SVP dispatch sections holding the gate
	admitted int64 // highest write ID allowed past the gate
}

func newBlocker() *blocker {
	b := &blocker{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// admitWrite holds the calling write until no SVP dispatch is in
// progress, reporting whether it had to wait. A write already admitted
// (an earlier replica delivery of the same ID passed the gate) always
// proceeds so replicas cannot wedge the consistency barrier by
// half-applying a write.
func (b *blocker) admitWrite(writeID int64) (waited bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if writeID <= b.admitted {
		return false
	}
	for b.blocks > 0 && writeID > b.admitted {
		waited = true
		b.cond.Wait()
	}
	if writeID > b.admitted {
		b.admitted = writeID
	}
	return waited
}

// block closes the gate for a dispatch section.
func (b *blocker) block() {
	b.mu.Lock()
	b.blocks++
	b.mu.Unlock()
}

// unblock reopens the gate.
func (b *blocker) unblock() {
	b.mu.Lock()
	b.blocks--
	if b.blocks == 0 {
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// pollWait sleeps the current convergence-poll interval, honouring the
// context, and returns the next interval: doubled, capped at
// waitSpinMax. Convergence loops thus back off instead of busy-spinning
// at a fixed 50µs, and abandon the wait as soon as the query's deadline
// fires.
func pollWait(ctx context.Context, d time.Duration) (time.Duration, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return d, ctx.Err()
	}
	next := d * 2
	if next > waitSpinMax {
		next = waitSpinMax
	}
	return next, nil
}

// awaitConsistent waits (gate closed) until every live node's
// transaction counter is equal, returning the common value — the snapshot
// all SVP sub-queries will read at — and the nodes it holds for, which
// are the query's fan-out. A node that leaves rotation while the barrier
// waits (its breaker tripped, typically on the very write it lags by) is
// dropped rather than waited for: it can only catch up through the
// controller's write-log replay, which queues behind the next write — and
// that write is held at this gate. The wait is bounded by both the
// barrier timeout and the query's context deadline, whichever fires
// first. procs is filtered in place.
func (b *blocker) awaitConsistent(ctx context.Context, procs []*NodeProcessor, timeout time.Duration) (int64, []*NodeProcessor, error) {
	deadline := time.Now().Add(timeout)
	spin := waitSpin
	for {
		if procs = slices.DeleteFunc(procs, (*NodeProcessor).Down); len(procs) == 0 {
			return 0, nil, fmt.Errorf("no live nodes")
		}
		if lo, hi := counterRange(procs); lo == hi {
			return lo, procs, nil
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("replicas did not converge within %v", timeout)
		}
		var err error
		if spin, err = pollWait(ctx, spin); err != nil {
			counters := make([]int64, len(procs))
			for i, p := range procs {
				counters[i] = p.TxnCounter()
			}
			return 0, nil, fmt.Errorf("replica convergence abandoned (counters %v): %w", counters, err)
		}
	}
}
