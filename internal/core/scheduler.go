package core

import (
	"context"
	"fmt"
	"slices"
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
// degenerates to the classic one-range-per-node SVP layout. A worker
// the others would outrun parks and leaves the fresh queue to them (see
// outrunLocked), so a slow node does not end the query with one last
// partition of its own; it stays a requeue target all the while.
//
// The scheduler owns claim/steal/requeue bookkeeping only; partition
// results never pass through it. All coordination is a single mutex
// plus a broadcast channel that is closed-and-replaced on every state
// change (the channel form of a condition variable: a worker re-checks
// state under the lock before parking, so no wakeup is ever lost).
type fineScheduler struct {
	mu     sync.Mutex
	status []partStatus
	tried  []map[*NodeProcessor]bool
	blocks [][]int // worker slot -> its home partition indices, ascending
	owner  []int   // partition -> home worker slot
	// busy and runs are each worker slot's pace: the time its successful
	// claims took, and how many there were. parked marks slots that
	// declined the fresh queue to faster workers, gone those that exited.
	busy   []time.Duration
	runs   []int
	parked []bool
	gone   []bool

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
		tried:   make([]map[*NodeProcessor]bool, m),
		blocks:  make([][]int, nWorkers),
		owner:   make([]int, m),
		busy:    make([]time.Duration, nWorkers),
		runs:    make([]int, nWorkers),
		parked:  make([]bool, nWorkers),
		gone:    make([]bool, nWorkers),
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
// It parks until work appears (a requeue) or the queue settles, and
// while the other workers would outrun it. A nil slice with a nil error
// means the worker is finished.
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
		// A worker the others would outrun parks at once, so no other
		// worker counts on it to drain the queue; a later pace, a requeue
		// or an exit wakes it to decide again.
		if s.parked[w] = s.outrunLocked(w); !s.parked[w] {
			if idxs, stolen = s.pickLocked(w, p, maxRun); idxs != nil {
				s.mu.Unlock()
				return idxs, stolen, nil
			}
		}
		// Nothing claimable now, but running partitions may be requeued
		// (a node crash) — wait until the state changes.
		ch := s.wake
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// pickLocked claims w's next partitions: up to maxRun unclaimed home
// partitions in index order (adjacent key ranges → sequential page
// access per node), else one stolen from the tail of the block with the
// most queued work — the straggler sheds from the far end of its range
// while it keeps working the near end. Callers hold mu.
func (s *fineScheduler) pickLocked(w int, p *NodeProcessor, maxRun int) (idxs []int, stolen bool) {
	for _, idx := range s.blocks[w] {
		if len(idxs) >= maxRun {
			break
		}
		if s.status[idx] == partQueued && !s.tried[idx][p] {
			s.claimLocked(idx, p)
			idxs = append(idxs, idx)
		}
	}
	if idxs != nil {
		return idxs, false
	}
	if idx, ok := s.stealLocked(p); ok {
		s.claimLocked(idx, p)
		return []int{idx}, true
	}
	return nil, false
}

// outrunLocked reports whether worker w should park and leave the
// queued partitions to the others: at the paces measured so far, the
// other claiming workers — each first finishing the partition it runs —
// would drain every queued partition before w finished one more, so a
// claim by w would only become the query's tail. The last claiming
// worker never parks this way. It holds only while fresh partitions
// (never claimed) are queued and nothing else is: those any worker may
// take, so parking never delays a partition a requeue left to w alone.
// Callers hold mu.
func (s *fineScheduler) outrunLocked(w int) bool {
	if s.runs[w] == 0 {
		return false
	}
	queued := 0
	for idx, st := range s.status {
		if st == partQueued {
			if len(s.tried[idx]) > 0 {
				return false
			}
			queued++
		}
	}
	others, rate := 0, 0.0 // the others' partitions per nanosecond
	for v := range s.blocks {
		if v != w && !s.gone[v] && !s.parked[v] && s.runs[v] > 0 {
			others++
			rate += float64(s.runs[v]) / float64(s.busy[v])
		}
	}
	return queued > 0 && others > 0 && float64(queued+others)/rate < float64(s.busy[w])/float64(s.runs[w])
}

// ran records that worker w answered a partition in d, and wakes the
// parked workers to weigh the new pace.
func (s *fineScheduler) ran(w int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy[w] += d
	s.runs[w]++
	if slices.Contains(s.parked, true) {
		s.broadcast()
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
// streams it successfully (a worker's or a follower's). Settling a
// settled partition is a no-op.
func (s *fineScheduler) settle(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status[idx] == partDone {
		return
	}
	s.status[idx] = partDone
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
	s.gone[w] = true
	if s.failure != nil || s.pending == 0 {
		return
	}
	s.broadcast() // a parked worker claims on in w's place
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
