package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"apuama/internal/fault"
)

// Straggler chaos acceptance: one of four nodes runs at 8× latency
// (seeded fault.SlowFactor — proportional, so it models a genuinely
// slow node at any partition granularity). With fine-grained virtual
// partitions the shared queue redistributes the slow node's home work
// onto the fast nodes, so the query finishes within 1.4× of the
// no-straggler baseline; with the coarse one-range-per-node split
// (granularity=1) the straggler's whole range stays pinned to it and
// the query degrades ≥2.5× (≈ 8×: stealing alone shapes both ratios, and
// no partition runs twice). Steal counters confirm the redistribution
// happened rather than the timing being luck.
//
// Methodology: every statement carries a constant injected base latency
// so per-statement time dominates scheduling noise; each phase is timed
// as the median of three runs; and both ratios compare a configuration
// against ITS OWN no-straggler baseline, so constant per-query overhead
// (race detector, compose, barrier) cancels out.

const (
	stragglerNodes  = 4
	stragglerFactor = 8.0
	stragglerBase   = 4 * time.Millisecond
	stragglerQuery  = "select count(*) from orders"
)

// timedRuns executes the query runs times and returns the median
// wall-clock duration, verifying every answer against want.
func timedRuns(t *testing.T, s *stack, want int64, runs int) time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		res, err := s.eng.RunSVP(context.Background(), mustSel(t, stragglerQuery))
		if err != nil {
			t.Fatal(err)
		}
		durs = append(durs, time.Since(start))
		if len(res.Rows) != 1 || res.Rows[0][0].I != want {
			t.Fatalf("run %d: wrong answer %v, want %d", i, res.Rows, want)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}

// slowAll attaches a constant-latency injector to every node; straggler
// additionally stretches node `slow` to factor× its natural duration.
func slowAll(s *stack, slow int) {
	for i, p := range s.eng.Procs() {
		inj := fault.New(int64(100+i)).Slow(stragglerBase, 0)
		if i == slow {
			inj = inj.SlowFactor(stragglerFactor)
		}
		p.InjectFaults(inj)
	}
}

// measure builds a stack at the given granularity and returns the
// median no-straggler and with-straggler durations plus the steals
// recorded during the straggler phase.
func measure(t *testing.T, granularity int) (base, degraded time.Duration, steals int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.AVPGranularity = granularity
	opts.QueryTimeout = 30 * time.Second
	s := buildStack(t, stragglerNodes, opts)
	ref := s.single(t, stragglerQuery)
	want := ref.Rows[0][0].I

	slowAll(s, -1)
	timedRuns(t, s, want, 1) // warm pools and page cache
	base = timedRuns(t, s, want, 3)

	slowAll(s, stragglerNodes-1)
	before := s.eng.Snapshot()
	degraded = timedRuns(t, s, want, 3)
	after := s.eng.Snapshot()
	return base, degraded, after.AVPSteals - before.AVPSteals
}

func TestStragglerChaosFineVsCoarse(t *testing.T) {
	if testing.Short() {
		t.Skip("straggler chaos timing test")
	}
	fineBase, fineDeg, fineSteals := measure(t, 64)
	coarseBase, coarseDeg, _ := measure(t, 1)

	fineRatio := float64(fineDeg) / float64(fineBase)
	coarseRatio := float64(coarseDeg) / float64(coarseBase)
	t.Logf("fine:   base=%v straggler=%v ratio=%.2f steals=%d", fineBase, fineDeg, fineRatio, fineSteals)
	t.Logf("coarse: base=%v straggler=%v ratio=%.2f", coarseBase, coarseDeg, coarseRatio)

	if fineRatio >= 1.4 {
		t.Errorf("fine-grained AVP degraded %.2fx under the straggler, want < 1.4x", fineRatio)
	}
	if coarseRatio < 2.5 {
		t.Errorf("coarse split degraded only %.2fx, want >= 2.5x (baseline invalid?)", coarseRatio)
	}
	if fineSteals == 0 {
		t.Error("no steals recorded: the fine schedule never redistributed the straggler's work")
	}
}

// TestSlowWorkerParks: a worker the others would outrun parks while fresh
// partitions are queued, and claims once the fast worker exits or turns
// slow (a requeue: TestParkedWorkerTakesTheRequeue); the last never parks.
func TestSlowWorkerParks(t *testing.T) {
	slow := &NodeProcessor{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a parked next returns at once
	for _, wake := range []func(*fineScheduler){
		func(s *fineScheduler) { s.workerGone(0, []*NodeProcessor{{}, slow}) },
		func(s *fineScheduler) { s.ran(0, time.Second) },
	} {
		s := newFineScheduler(4, 2)
		s.ran(0, time.Millisecond)
		s.ran(1, 10*time.Millisecond)
		if idxs, _, _ := s.next(ctx, 1, slow, 1); idxs != nil {
			t.Fatalf("slow worker claimed %v beside the fast one", idxs)
		}
		parkedOn := s.wake
		wake(s)
		select {
		case <-parkedOn:
		default:
			t.Fatal("the parked worker was not woken")
		}
		if idxs, _, _ := s.next(ctx, 1, slow, 1); len(idxs) != 1 {
			t.Fatalf("woken worker claimed %v", idxs)
		}
	}
	s := newFineScheduler(9, 3)
	for w, d := range []time.Duration{1, 1, 20} {
		s.ran(w, d*time.Millisecond)
	}
	if !s.outrunLocked(2) {
		t.Fatal("worker 2 must park behind workers 0 and 1")
	}
	if s.parked[0], s.gone[1] = true, true; s.outrunLocked(2) {
		t.Fatal("the last claiming worker parked")
	}
}

// TestParkedWorkerTakesTheRequeue: on two nodes the slow one parks while
// fresh partitions remain (node 0's n-th request waits (n-1)×80 ms, node
// 1's 40 ms), then node 0 crashes after the work of its third, the last
// partition; the parked worker runs it and the query answers exactly.
func TestParkedWorkerTakesTheRequeue(t *testing.T) {
	opts := DefaultOptions()
	opts.AVPGranularity = 2 // 4 partitions: node 0 runs 0 and 1, then steals 3
	s := buildStack(t, 2, opts)
	want := s.single(t, stragglerQuery).Rows[0][0].I
	s.eng.Procs()[0].InjectFaults(fault.New(1).Slow(0, 80*time.Millisecond).CrashMidQueryAt(3, 0))
	s.eng.Procs()[1].InjectFaults(fault.New(2).Slow(40*time.Millisecond, 0))
	timedRuns(t, s, want, 1) // fails on an error or a wrong count
	if st := s.eng.Snapshot(); st.AVPRequeues != 1 || st.SubQueries != 5 {
		t.Errorf("requeues %d, sub-queries %d; want 1 and 5", st.AVPRequeues, st.SubQueries)
	}
}
