package admission

import (
	"context"
	"time"
)

// Reservation is one query's claim against the cluster-wide memory
// budget. The engine opens one per admitted query and every allocation
// the query's composition pipeline retains — gather-channel buffers and
// the compose sink's buffered attempt rows — charges it with Grow. Memory
// the query stops retaining before it ends (a failed or losing attempt's
// rows) is returned with Shrink; Release frees the rest at query end.
//
// A nil *Reservation (accounting disabled) is a valid no-op, so sinks
// charge unconditionally.
type Reservation struct {
	c    *Controller
	ctx  context.Context // the query context; bounds small-debt waits
	held int64
}

// Reserve opens a reservation for one query; the context bounds any
// small-debt waits inside Grow. Returns nil (a no-op reservation) when
// memory accounting is disabled.
func (c *Controller) Reserve(ctx context.Context) *Reservation {
	if c == nil || c.cfg.MemoryBudget <= 0 {
		return nil
	}
	return &Reservation{c: c, ctx: ctx}
}

// Grow charges n more bytes to the reservation. A debt that fits the
// budget is granted immediately; a small debt (at most Budget/8) that
// does not fit waits — bounded by MemWaitMax and the query context —
// for other queries to release; a large debt aborts at once with a
// typed *MemoryError wrapping ErrMemoryBudget. The bounded wait is what
// makes the budget deadlock-free: two queries growing against each
// other resolve by one aborting, never by both waiting forever.
func (r *Reservation) Grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	c := r.c
	budget := c.cfg.MemoryBudget
	deadline := time.Now().Add(c.cfg.MemWaitMax)
	for {
		c.memMu.Lock()
		if c.memUsed+n <= budget {
			c.memUsed += n
			r.held += n
			if c.memUsed > c.memPeak {
				c.memPeak = c.memUsed
			}
			c.mMemReserved.Set(c.memUsed)
			c.memMu.Unlock()
			return nil
		}
		if n > budget/smallDebtDiv {
			c.memMu.Unlock()
			return c.memAbort(n, r.held, budget)
		}
		wake := c.memWake
		if wake == nil {
			wake = make(chan struct{})
			c.memWake = wake
		}
		c.memMu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return c.memAbort(n, r.held, budget)
		}
		t := time.NewTimer(wait)
		select {
		case <-wake:
			t.Stop() // a release freed something: re-check
		case <-r.ctx.Done():
			t.Stop()
			return r.ctx.Err()
		case <-t.C:
			return c.memAbort(n, r.held, budget)
		}
	}
}

// Held reports the bytes currently charged to this reservation.
func (r *Reservation) Held() int64 {
	if r == nil {
		return 0
	}
	return r.held
}

// Shrink returns n bytes of the claim (at most what is held) and wakes
// every blocked Grow. Safe on nil.
func (r *Reservation) Shrink(n int64) {
	if r == nil {
		return
	}
	r.free(min(n, r.held))
}

// Release frees the whole claim and wakes every blocked Grow. Safe to
// call more than once and on nil.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.free(r.held)
}

func (r *Reservation) free(n int64) {
	if n <= 0 {
		return
	}
	c := r.c
	c.memMu.Lock()
	c.memUsed -= n
	r.held -= n
	if c.memWake != nil {
		close(c.memWake)
		c.memWake = nil
	}
	c.mMemReserved.Set(c.memUsed)
	c.memMu.Unlock()
}

// memAbort counts a budget abort and builds its typed error.
func (c *Controller) memAbort(req, held, budget int64) error {
	c.mu.Lock()
	c.memAborts++
	c.mu.Unlock()
	c.mMemAborts.Inc()
	return &MemoryError{Requested: req, Held: held, Budget: budget}
}
