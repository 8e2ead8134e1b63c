package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"apuama/internal/admission"
	"apuama/internal/fault"
	"apuama/internal/tpch"
)

// overloadOpts is the chaos suite's admission configuration: small
// capacity, a short bounded queue, fast brownout transitions, and a
// roomy memory budget (this suite exercises shedding, not mem aborts).
func overloadOpts() Options {
	opts := DefaultOptions()
	opts.Admission = admission.Config{
		MaxConcurrent: 8,
		MaxQueue:      8,
		QueueTimeout:  10 * time.Millisecond,
		MemoryBudget:  32 << 20,
		Brownout:      true,
		RaiseDepth:    2,
		RaiseWait:     time.Millisecond,
		RaiseHold:     time.Millisecond,
		Hold:          50 * time.Millisecond,
	}
	return opts
}

// slowNodes injects a deterministic per-statement latency on every node
// so service time is measurable and the gate has something to saturate.
func slowNodes(s *stack, d time.Duration) {
	for i, p := range s.eng.Procs() {
		p.InjectFaults(fault.New(int64(1000+i)).Slow(d, 0))
	}
}

func durP95(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*95)/100]
}

// TestOverloadChaosSpike is the seeded 4×-capacity overload test: 32
// spike clients against a gate sized for 8 weight units. It asserts the
// contract of graceful degradation end to end — excess load is shed
// early with typed retryable errors, queries that ARE admitted keep
// near-uncontended latency, memory stays within budget, the brownout
// ladder engages, and every knob restores once the spike drains.
// Run under -race it doubles as the no-deadlock check for the
// gate/queue/brownout/memory interleavings.
func TestOverloadChaosSpike(t *testing.T) {
	s := buildStack(t, 4, overloadOpts())
	defer s.eng.Close()
	const service = 25 * time.Millisecond
	slowNodes(s, service)
	query := "select count(*) from orders"

	// Uncontended baseline: sequential queries on the idle cluster.
	var base []time.Duration
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		if _, err := s.ctl.Query(query); err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		base = append(base, time.Since(t0))
	}
	baseP95 := durP95(base)

	// The spike: 32 clients (4× the 8-slot capacity at weight 2 per
	// aggregate query) arriving within 5ms, 2-4 queries each, all from
	// one seeded plan so the offered load replays identically.
	plan := fault.NewSpike(42, 32).Ramp(5*time.Millisecond).Queries(3, 1).Plan()
	var mu sync.Mutex
	var admitted []time.Duration
	var shedErrs []error
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range plan {
		wg.Add(1)
		go func(cl fault.SpikeClient) {
			defer wg.Done()
			time.Sleep(time.Until(t0.Add(cl.Start)))
			for q := 0; q < cl.Queries; q++ {
				qt0 := time.Now()
				_, err := s.ctl.Query(query)
				d := time.Since(qt0)
				mu.Lock()
				if err != nil {
					shedErrs = append(shedErrs, err)
				} else {
					admitted = append(admitted, d)
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()

	adm := s.eng.Admission()
	st := adm.Snapshot()

	// 1. The gate shed real load, and every failure was a typed,
	// retryable overload error carrying a back-off hint — never a
	// garbled internal error.
	if st.Shed == 0 || len(shedErrs) == 0 {
		t.Fatalf("4x overload shed nothing (stats %+v, %d client errors)", st, len(shedErrs))
	}
	for _, err := range shedErrs {
		if !errors.Is(err, admission.ErrOverloaded) {
			t.Fatalf("non-overload error under spike: %v", err)
		}
		if !admission.Retryable(err) {
			t.Fatalf("shed error not retryable: %v", err)
		}
		if admission.RetryAfter(err) <= 0 {
			t.Fatalf("shed error carries no retry-after hint: %v", err)
		}
	}
	if int64(len(shedErrs)) != st.Shed {
		t.Fatalf("clients saw %d sheds, gate counted %d", len(shedErrs), st.Shed)
	}

	// 2. Admission protected the admitted: their p95 stays within 2× the
	// uncontended p95 (the queue wait is bounded at QueueTimeout, well
	// under one service time). The absolute slack absorbs scheduler
	// noise when the host is contended (race detector, parallel
	// packages); an unprotected convoy at 4x offered load lands far
	// beyond it regardless.
	if len(admitted) == 0 {
		t.Fatalf("no query was admitted during the spike")
	}
	admP95 := durP95(admitted)
	if limit := 2*baseP95 + 100*time.Millisecond; admP95 > limit {
		t.Fatalf("admitted p95 %v exceeds 2x uncontended p95 %v + slack (%d admitted, %d shed)",
			admP95, baseP95, len(admitted), len(shedErrs))
	}

	// 3. Memory stayed within budget the whole time.
	if st.MemPeak <= 0 || st.MemPeak > 32<<20 {
		t.Fatalf("memory peak %d outside (0, budget]", st.MemPeak)
	}
	if st.MemAborts != 0 {
		t.Fatalf("unexpected memory aborts under a roomy budget: %d", st.MemAborts)
	}

	// 4. The brownout ladder engaged under the spike...
	if st.BrownoutRaises == 0 {
		t.Fatalf("brownout never engaged at 4x load (stats %+v)", st)
	}
	// ...and every knob restores once the spike drains.
	deadline := time.Now().Add(10 * time.Second)
	for adm.Level() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("brownout level stuck at %d after drain", adm.Level())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if adm.StaleFloor() != 0 {
		t.Fatalf("degradation knobs not restored after drain")
	}

	// 5. Accounting drained cleanly: nothing left in flight or reserved.
	end := adm.Snapshot()
	if end.InUse != 0 || end.QueueDepth != 0 || end.MemReserved != 0 {
		t.Fatalf("residual accounting after drain: %+v", end)
	}
}

// TestShedErrorsDoNotTripBreaker pins the error-class firewall between
// overload protection and fault tolerance: a shed is the cluster
// working as designed, so it must not trip a circuit breaker, count as
// a transient failure, or disturb the write log — otherwise an overload
// would cascade into spurious "node down" recoveries.
func TestShedErrorsDoNotTripBreaker(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = admission.Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute}
	s := buildStack(t, 2, opts)
	defer s.eng.Close()
	adm := s.eng.Admission()
	logBefore := s.ctl.WriteLogLen()

	// Jam the gate: one ticket holds the slot, one waiter fills the queue.
	tk, err := adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if tk2, err := adm.Acquire(context.Background(), 1); err == nil {
			tk2.Release()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for adm.Snapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 5; i++ {
		_, qerr := s.ctl.Query("select count(*) from orders")
		if !errors.Is(qerr, admission.ErrOverloaded) {
			t.Fatalf("query %d: %v, want overload shed", i, qerr)
		}
	}
	tk.Release()
	<-queued

	cst := s.ctl.Snapshot()
	if cst.BreakerTrips != 0 || cst.Probes != 0 || cst.AutoRecoveries != 0 {
		t.Fatalf("shed errors disturbed the breaker: %+v", cst)
	}
	if cst.TransientRetries != 0 || cst.ReadFailovers != 0 {
		t.Fatalf("shed errors were retried as transient faults: %+v", cst)
	}
	if got := s.ctl.DisabledBackends(); len(got) != 0 {
		t.Fatalf("shed errors took backends out of rotation: %v", got)
	}
	if after := s.ctl.WriteLogLen(); after != logBefore {
		t.Fatalf("shed errors touched the write log: %d -> %d", logBefore, after)
	}
	// And the cluster still answers once the jam clears.
	if _, err := s.ctl.Query("select count(*) from orders"); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
}

// TestMemoryBudgetAbortsTyped drives a budget abort through the full
// SVP path: a budget smaller than the query's up-front gather charge
// aborts before any sub-query dispatches, with the typed non-retryable
// error.
func TestMemoryBudgetAbortsTyped(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = admission.Config{MaxConcurrent: 4, MemoryBudget: 1 << 10}
	s := buildStack(t, 4, opts)
	defer s.eng.Close()
	_, err := s.ctl.Query("select count(*) from orders")
	if !errors.Is(err, admission.ErrMemoryBudget) {
		t.Fatalf("query under 1KB budget: %v, want ErrMemoryBudget", err)
	}
	if admission.Retryable(err) {
		t.Fatalf("memory abort must not be retryable: %v", err)
	}
	st := s.eng.Admission().Snapshot()
	if st.MemAborts == 0 {
		t.Fatalf("no memory abort counted: %+v", st)
	}
	if st.MemReserved != 0 {
		t.Fatalf("aborted query left %d bytes reserved", st.MemReserved)
	}
}

// TestMemoryBudgetFailoverReleasesDeadAttempt: a node that crashes
// mid-stream leaves rows in the sink that the failover replaces. Dropping
// them must return their charge, so a fetch whose budget covers its rows
// once (plus the gather's up-front charge), but not its rows plus the
// dead attempt's, still answers.
func TestMemoryBudgetFailoverReleasesDeadAttempt(t *testing.T) {
	const text = "select o_orderkey, o_totalprice from orders"
	crashed := func(opts Options) *stack {
		opts.QueryTimeout = 30 * time.Second
		s := buildStack(t, 2, opts)
		s.eng.Procs()[0].InjectFaults(fault.New(3).CrashMidQueryAt(1, 1))
		return s
	}
	// Calibrate on an unbudgeted stack: the composed rows R and the rows
	// D the crashed attempt streamed before it died.
	cal := crashed(DefaultOptions())
	want, err := cal.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatal(err)
	}
	st := cal.eng.Snapshot()
	if st.SubQueryRetries < 1 || st.StreamedRows <= st.ComposedRows {
		t.Fatalf("no mid-stream failover to test: %+v", st)
	}
	rowBytes := rowsBytes(want.Rows[:1])
	rows, dead := st.ComposedRows*rowBytes, (st.StreamedRows-st.ComposedRows)*rowBytes

	opts := DefaultOptions()
	gatherCharge := int64(defaultGatherBudget*2) * gatherSlotBytes
	opts.Admission = admission.Config{MaxConcurrent: 4, MemoryBudget: gatherCharge + rows + dead/2}
	s := crashed(opts)
	defer s.eng.Close()
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatalf("budget of R + D/2 (R=%d, D=%d bytes): %v", rows, dead, err)
	}
	assertSameResult(t, "failover under budget", got, want, true)
	if ast := s.eng.Admission().Snapshot(); ast.MemAborts != 0 || ast.MemReserved != 0 {
		t.Fatalf("admission after the query: %+v", ast)
	}
}

// TestSlowQueryKillerCancelsThroughEngine wires the killer to the
// per-morsel/context checks of the real execution path: a query whose
// injected service time dwarfs its class budget is cancelled and
// surfaces the typed ErrSlowQuery cause, not a bare context error.
func TestSlowQueryKillerCancelsThroughEngine(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = admission.Config{
		MaxConcurrent: 4,
		KillMultiple:  1,
		ClassBudget:   5 * time.Millisecond,
	}
	s := buildStack(t, 2, opts)
	defer s.eng.Close()
	slowNodes(s, 500*time.Millisecond)
	t0 := time.Now()
	_, err := s.ctl.Query("select count(*) from orders")
	if !errors.Is(err, admission.ErrSlowQuery) {
		t.Fatalf("slow query returned %v, want ErrSlowQuery", err)
	}
	// Killed at ~KillMultiple × weight × ClassBudget, far before the
	// injected 500ms service time.
	if d := time.Since(t0); d > 400*time.Millisecond {
		t.Fatalf("slow query ran %v; the killer should have cancelled it", d)
	}
	if st := s.eng.Admission().Snapshot(); st.SlowKills == 0 {
		t.Fatalf("no slow kill counted: %+v", st)
	}
}

// TestOracleBrownoutEquivalence folds graceful degradation into the
// differential-oracle suite: with the ladder pinned at its top level
// (stale floor, batching window off), every eligible
// TPC-H query must stay BIT-identical to the same stack running
// uncontended — degraded means slower, never different.
func TestOracleBrownoutEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.Admission = admission.Config{MaxConcurrent: 16, Brownout: true}
	browned := buildStack(t, 4, opts)
	defer browned.eng.Close()
	browned.eng.Admission().ForceLevel(1)
	plain := buildStack(t, 4, DefaultOptions())

	for _, qn := range tpch.QueryNumbers {
		text := tpch.MustQuery(qn)
		want, err := plain.ctl.Query(text)
		if err != nil {
			t.Fatalf("uncontended Q%d: %v", qn, err)
		}
		got, err := browned.ctl.Query(text)
		if err != nil {
			t.Fatalf("browned-out Q%d: %v", qn, err)
		}
		assertBitIdentical(t, fmt.Sprintf("Q%d", qn), got, want)
	}
	if lvl := browned.eng.Admission().Level(); lvl != 1 {
		t.Fatalf("forced level drifted to %d", lvl)
	}
}
