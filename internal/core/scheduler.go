package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// partStatus is the lifecycle of one fine virtual partition inside a
// single query: queued, claimed by a worker, or answered.
type partStatus uint8

const (
	partQueued partStatus = iota
	partRunning
	partDone
)

// fineScheduler is the shared cluster-level queue of one query's fine
// virtual partitions. Each live node runs one worker goroutine that
// pulls its next partition when it finishes the last, so fast nodes
// drain the queue and naturally steal work from stragglers. Assignment
// is locality-preferring: the partition index space is cut into one
// contiguous "home" block per worker, a worker claims from its own
// block first and steals from the most-loaded remaining block only when
// its home work is gone — with a balanced cluster the schedule
// degenerates to the classic one-range-per-node SVP layout.
//
// The scheduler owns claim/steal/requeue bookkeeping only; partition
// results never pass through it. All coordination is a single mutex
// plus a broadcast channel that is closed-and-replaced on every state
// change (the channel form of a condition variable: a worker re-checks
// state under the lock before parking, so no wakeup is ever lost).
type fineScheduler struct {
	mu     sync.Mutex
	status []partStatus
	runner []*NodeProcessor // claiming worker's proc, while running
	start  []time.Time      // current attempt's claim time, while running
	tried  []map[*NodeProcessor]bool
	blocks [][]int // worker slot -> its home partition indices, ascending
	owner  []int   // partition -> home worker slot

	pending int // partitions not yet done (queued + running)
	workers int // worker goroutines still claiming
	lastErr error
	failure error         // terminal: some partition has no live untried node left
	failed  chan struct{} // closed when failure is set
	wake    chan struct{} // closed-and-replaced broadcast
}

// newFineScheduler builds the queue over m partitions for nWorkers
// workers (one per live node). Home blocks tile the partition index space
// contiguously, so each worker's home ranges are adjacent key ranges —
// the locality the partial-result cache and the buffer pools see.
func newFineScheduler(m, nWorkers int) *fineScheduler {
	s := &fineScheduler{
		status:  make([]partStatus, m),
		runner:  make([]*NodeProcessor, m),
		start:   make([]time.Time, m),
		tried:   make([]map[*NodeProcessor]bool, m),
		blocks:  make([][]int, nWorkers),
		owner:   make([]int, m),
		pending: m,
		workers: nWorkers,
		failed:  make(chan struct{}),
		wake:    make(chan struct{}),
	}
	for i := range s.tried {
		s.tried[i] = map[*NodeProcessor]bool{}
	}
	for w := 0; w < nWorkers; w++ {
		lo, hi := w*m/nWorkers, (w+1)*m/nWorkers
		for i := lo; i < hi; i++ {
			s.blocks[w] = append(s.blocks[w], i)
			s.owner[i] = w
		}
	}
	return s
}

// broadcast wakes every parked worker. Callers hold mu.
func (s *fineScheduler) broadcast() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// claimLocked claims partition idx for p. Callers hold mu.
func (s *fineScheduler) claimLocked(idx int, p *NodeProcessor) {
	s.status[idx] = partRunning
	s.runner[idx] = p
	s.start[idx] = time.Now()
	s.tried[idx][p] = true
}

// preclaim synchronously claims worker w's first home partition (-1 if
// none), before its goroutine starts — every live node is guaranteed its
// share of the fan-out, however the goroutines interleave.
func (s *fineScheduler) preclaim(w int, p *NodeProcessor) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range s.blocks[w] {
		if s.status[idx] == partQueued && !s.tried[idx][p] {
			s.claimLocked(idx, p)
			return idx
		}
	}
	return -1
}

// next claims up to maxRun partitions for worker w, preferring its home
// block and stealing one from the most-loaded other block otherwise.
// It parks until work appears (a requeue) or the queue settles. A nil
// slice with a nil error means the worker is finished.
func (s *fineScheduler) next(ctx context.Context, w int, p *NodeProcessor, maxRun int) (idxs []int, stolen bool, err error) {
	if maxRun < 1 {
		maxRun = 1
	}
	for {
		s.mu.Lock()
		if s.failure != nil || s.pending == 0 {
			s.mu.Unlock()
			return nil, false, nil
		}
		// Home block first: a run of unclaimed home partitions in index
		// order (adjacent key ranges → sequential page access per node).
		for _, idx := range s.blocks[w] {
			if len(idxs) >= maxRun {
				break
			}
			if s.status[idx] == partQueued && !s.tried[idx][p] {
				s.claimLocked(idx, p)
				idxs = append(idxs, idx)
			}
		}
		if len(idxs) > 0 {
			s.mu.Unlock()
			return idxs, false, nil
		}
		// Steal: one partition from the tail of the block with the most
		// queued work — the straggler sheds from the far end of its range
		// while it keeps working the near end.
		if idx, ok := s.stealLocked(p); ok {
			s.claimLocked(idx, p)
			s.mu.Unlock()
			return []int{idx}, true, nil
		}
		// Nothing claimable now, but running partitions may be requeued
		// (a node crash) — park until the state changes.
		ch := s.wake
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// stealLocked picks a queued partition from the block with the most
// queued partitions, from the tail. Callers hold mu.
func (s *fineScheduler) stealLocked(p *NodeProcessor) (int, bool) {
	bestBlock, bestLoad := -1, 0
	for b := range s.blocks {
		load := 0
		for _, idx := range s.blocks[b] {
			if s.status[idx] == partQueued && !s.tried[idx][p] {
				load++
			}
		}
		if load > bestLoad {
			bestBlock, bestLoad = b, load
		}
	}
	if bestBlock < 0 {
		return 0, false
	}
	blk := s.blocks[bestBlock]
	for i := len(blk) - 1; i >= 0; i-- {
		if s.status[blk[i]] == partQueued && !s.tried[blk[i]][p] {
			return blk[i], true
		}
	}
	return 0, false
}

// settle marks a partition answered: at dispatch when the partial cache
// or another query's flight serves it, later by the first attempt that
// streams it successfully (a worker's, a hedge twin's or a follower's).
// Settling a settled partition is a no-op.
func (s *fineScheduler) settle(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status[idx] == partDone {
		return
	}
	s.status[idx] = partDone
	s.runner[idx] = nil
	s.pending--
	if s.pending == 0 {
		s.broadcast()
	}
}

// requeue puts a failed partition back on the queue after p exhausted
// its attempts there. It reports false — and marks the whole schedule
// failed — when no live worker remains that has not already tried the
// partition: the caller's error becomes the query's.
func (s *fineScheduler) requeue(idx int, p *NodeProcessor, cause error, alive []*NodeProcessor) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status[idx] != partRunning {
		return true // a hedge already answered it
	}
	s.tried[idx][p] = true
	s.lastErr = cause
	candidates := false
	for _, q := range alive {
		if q != nil && q != p && !q.Down() && !s.tried[idx][q] {
			candidates = true
			break
		}
	}
	if !candidates {
		s.failLocked(fmt.Errorf("no live node left for partition %d: %w", idx, cause))
		return false
	}
	s.status[idx] = partQueued
	s.runner[idx] = nil
	s.broadcast()
	return true
}

// workerGone retires worker w's claim loop (its node went down or the
// queue settled). When the last worker leaves with partitions still
// pending, the schedule fails with the last recorded cause — nobody is
// left to run them.
func (s *fineScheduler) workerGone(w int, alive []*NodeProcessor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers--
	alive[w] = nil
	if s.failure != nil || s.pending == 0 {
		return
	}
	// A queued partition whose remaining candidates all left is stuck
	// even though other workers are still draining their own blocks.
	for idx, st := range s.status {
		if st != partQueued {
			continue
		}
		ok := false
		for _, q := range alive {
			if q != nil && !q.Down() && !s.tried[idx][q] {
				ok = true
				break
			}
		}
		if !ok {
			cause := s.lastErr
			if cause == nil {
				cause = fmt.Errorf("worker lost")
			}
			s.failLocked(fmt.Errorf("no live node left for partition %d: %w", idx, cause))
			return
		}
	}
	if s.workers == 0 {
		cause := s.lastErr
		if cause == nil {
			cause = fmt.Errorf("all workers exited")
		}
		s.failLocked(fmt.Errorf("%d partitions abandoned: %w", s.pending, cause))
	}
}

// failLocked records the terminal failure and releases everyone.
// Callers hold mu.
func (s *fineScheduler) failLocked(err error) {
	if s.failure != nil {
		return
	}
	s.failure = err
	close(s.failed)
	s.broadcast()
}

// failedC is closed once the schedule cannot finish; Err carries why.
func (s *fineScheduler) failedC() <-chan struct{} { return s.failed }

func (s *fineScheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// oldestRunning returns the running partition with the earliest claim
// time, skipping those the gather already settled — the hedge
// dispatcher's target.
func (s *fineScheduler) oldestRunning(settled []bool) (idx int, runner *NodeProcessor, started time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx = -1
	for i, st := range s.status {
		if st != partRunning || settled[i] {
			continue
		}
		if idx < 0 || s.start[i].Before(started) {
			idx, runner, started = i, s.runner[i], s.start[i]
		}
	}
	return idx, runner, started, idx >= 0
}
