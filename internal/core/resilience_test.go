package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"apuama/internal/cluster"
	"apuama/internal/fault"
	"apuama/internal/tpch"
)

// TestFallbackReasonClasses: ineligible queries are bucketed by stable
// reason class, not by formatted error string, so the stats map stays
// bounded no matter how many distinct queries fall back.
func TestFallbackReasonClasses(t *testing.T) {
	s := buildStack(t, 2, DefaultOptions())
	// Five distinct query texts, one ineligibility class (nation is not
	// virtually partitioned).
	for k := 1; k <= 5; k++ {
		if _, err := s.ctl.Query(fmt.Sprintf("select n_name from nation where n_nationkey = %d", k)); err != nil {
			t.Fatal(err)
		}
	}
	// A different class: ORDER BY key missing from the select list.
	if _, err := s.ctl.Query("select o_custkey from orders order by o_totalprice"); err != nil {
		t.Fatal(err)
	}
	st := s.eng.Snapshot()
	if len(st.FallbackReasons) != 2 {
		t.Fatalf("want 2 reason classes, got %v", st.FallbackReasons)
	}
	if st.FallbackReasons[ReasonNoVPTable] != 5 {
		t.Errorf("no-vp-table count: %v", st.FallbackReasons)
	}
	if st.FallbackReasons[ReasonOrderBy] != 1 {
		t.Errorf("order-by count: %v", st.FallbackReasons)
	}
}

// TestFallbackClassMapping covers the error-to-class helper directly.
func TestFallbackClassMapping(t *testing.T) {
	err := notEligible(ReasonSelectStar, "SELECT * is not decomposed")
	if !errors.Is(err, ErrNotEligible) {
		t.Fatal("classed error must unwrap to ErrNotEligible")
	}
	if FallbackClass(err) != ReasonSelectStar {
		t.Fatalf("class: %s", FallbackClass(err))
	}
	if FallbackClass(errors.New("boom")) != ReasonOther {
		t.Fatal("unclassed errors must map to other")
	}
}

// TestPollWaitBacksOffAndHonoursContext: convergence polls double up to
// the cap instead of busy-spinning, and abandon the wait on cancel.
func TestPollWaitBacksOffAndHonoursContext(t *testing.T) {
	d := waitSpin
	for i := 0; i < 10; i++ {
		next, err := pollWait(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if next > waitSpinMax {
			t.Fatalf("interval exceeded cap: %v", next)
		}
		if next < d {
			t.Fatalf("interval shrank: %v -> %v", d, next)
		}
		d = next
	}
	if d != waitSpinMax {
		t.Fatalf("backoff never reached cap: %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pollWait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled poll: %v", err)
	}
}

// TestRetryTargetAlsoDead: a partition whose node crashes mid-query
// fails over; when the failover target dies too, the query returns a
// clean error instead of hanging.
func TestRetryTargetAlsoDead(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = 10 * time.Second
	s := buildStack(t, 2, opts)
	// Node 0 crashes mid-way through its first request; node 1 crashes
	// mid-way through its second (its own partition, then the failover).
	s.eng.Procs()[0].InjectFaults(fault.New(1).CrashMidQueryAt(1, 0))
	s.eng.Procs()[1].InjectFaults(fault.New(2).CrashMidQueryAt(2, 0))

	start := time.Now()
	_, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders"))
	if err == nil {
		t.Fatal("expected failure with every failover target dead")
	}
	if !errors.Is(err, cluster.ErrBackendDown) {
		t.Fatalf("want clean ErrBackendDown, got %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("query burned its deadline instead of failing cleanly")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dead failover target wedged the query")
	}
}

// TestClaimRetriesTransientThreeTimes: a claimed partition whose node
// fails every request transiently is tried once and retried in place
// three times, then fails the query when no other node can take it.
func TestClaimRetriesTransientThreeTimes(t *testing.T) {
	opts := DefaultOptions()
	opts.AVPGranularity = 1 // one partition: exactly one claim
	s := buildStack(t, 1, opts)
	flaky := fault.New(1).FlakyEvery(1)
	s.eng.Procs()[0].InjectFaults(flaky)

	if _, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders")); !errors.Is(err, cluster.ErrTransient) {
		t.Fatalf("want the exhausted transient failure, got %v", err)
	}
	if got := s.eng.Snapshot().BackoffRetries; got != 3 {
		t.Errorf("BackoffRetries = %d, want 3", got)
	}
	if got := flaky.Snapshot().Requests; got != 4 {
		t.Errorf("node saw %d requests, want 4", got)
	}
}

// assertGateOpen verifies the consistency gate admits a new write
// promptly (no SVP dispatch section left holding it).
func assertGateOpen(t *testing.T, s *stack, writeID int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.eng.gate.admitWrite(writeID)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("write gate still blocked after failed query")
	}
}

// TestBarrierTimeoutUnblocksGate (strict mode): replicas that stay
// divergent past barrierTimeout fail the query AND leave the write gate
// unblocked, so the cluster keeps accepting updates.
func TestBarrierTimeoutUnblocksGate(t *testing.T) {
	opts := DefaultOptions()
	opts.barrierTimeout = 30 * time.Millisecond
	s := buildStack(t, 3, opts)
	// Node 0 is one write ahead; nothing will converge the others.
	lagNodes(t, s, 1, []string{"delete from orders where o_orderkey = 1"})

	_, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders"))
	if err == nil {
		t.Fatal("expected convergence timeout")
	}
	assertGateOpen(t, s, 999)
}

// TestStalenessTimeoutUnblocksGate (MaxStaleness mode): exceeding the
// staleness bound for the whole timeout fails the query and, as always
// in this mode, writes stay unblocked.
func TestStalenessTimeoutUnblocksGate(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxStaleness = 1
	opts.barrierTimeout = 30 * time.Millisecond
	s := buildStack(t, 2, opts)
	lagNodes(t, s, 1, []string{
		"delete from orders where o_orderkey = 1",
		"delete from orders where o_orderkey = 2",
		"delete from orders where o_orderkey = 3",
	})
	_, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders"))
	if err == nil {
		t.Fatal("expected staleness-bound timeout")
	}
	assertGateOpen(t, s, 999)
}

// TestBarrierHonoursQueryDeadline: a context deadline shorter than the
// barrier timeout abandons the convergence wait early.
func TestBarrierHonoursQueryDeadline(t *testing.T) {
	opts := DefaultOptions()
	opts.barrierTimeout = 10 * time.Second
	s := buildStack(t, 3, opts)
	lagNodes(t, s, 1, []string{"delete from orders where o_orderkey = 1"})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.eng.RunSVP(ctx, mustSel(t, "select count(*) from orders"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("barrier ignored the query deadline")
	}
	assertGateOpen(t, s, 999)
}

// TestDeadlineAbandonsStraggler: a straggling node pins the query until
// its deadline, at which point the gather loop
// abandons it instead of waiting out the injected latency.
func TestDeadlineAbandonsStraggler(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = 30 * time.Millisecond
	s := buildStack(t, 2, opts)
	s.eng.Procs()[1].InjectFaults(fault.New(3).Slow(10*time.Second, 0))

	start := time.Now()
	_, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not honoured: took %v", elapsed)
	}
	if st := s.eng.Snapshot(); st.DeadlineAborts < 1 {
		t.Errorf("DeadlineAborts not counted: %+v", st)
	}
}

// TestChaosSeededResilience is the acceptance scenario: concurrent SVP
// streams and a write stream run against a cluster with a straggler, a
// flaky node and a node that crashes mid-query and self-heals — all
// scripted deterministically by seeded injectors. Every successful query
// must return the exact single-node answer within its deadline, the
// resilience stats must show backoff retries, and the crashed node must
// be probed, replayed from the write log and re-admitted without any
// manual Recover call.
func TestChaosSeededResilience(t *testing.T) {
	opts := DefaultOptions()
	// Generous enough to absorb race-detector slowdown on top of the
	// injected 15ms straggler latency; the per-query budget assertion
	// below scales with it.
	opts.QueryTimeout = 5 * time.Second
	s := buildStack(t, 4, opts)
	defer s.ctl.Close()

	// lineitem is untouched by the write stream (which churns orders), so
	// the reference answer stays valid throughout.
	q := tpch.MustQuery(6)
	want := s.single(t, q)

	straggler := fault.New(7).Slow(15*time.Millisecond, 0)
	flaky := fault.New(11).FlakyEvery(3)
	crasher := fault.New(13).CrashMidQueryAt(5, 30)
	s.eng.Procs()[1].InjectFaults(straggler)
	s.eng.Procs()[2].InjectFaults(flaky)
	s.eng.Procs()[3].InjectFaults(crasher)

	const (
		readers          = 4
		queriesPerReader = 8
	)
	var readersWg, writerWg sync.WaitGroup
	stopWriter := make(chan struct{})
	writerWg.Add(1)
	go func() { // write stream: insert/delete pairs on orders
		defer writerWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			key := 90000000 + i
			if _, err := s.ctl.Exec(fmt.Sprintf(
				"insert into orders values (%d, 1, 'O', 1.0, date '1997-01-01', '1-URGENT', 'Clerk#1', 0, 'x')", key)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := s.ctl.Exec(fmt.Sprintf("delete from orders where o_orderkey = %d", key)); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			for i := 0; i < queriesPerReader; i++ {
				start := time.Now()
				got, err := s.ctl.Query(q)
				elapsed := time.Since(start)
				if err != nil {
					t.Errorf("query: %v", err)
					continue
				}
				if elapsed > opts.QueryTimeout+500*time.Millisecond {
					t.Errorf("query exceeded deadline budget: %v", elapsed)
				}
				assertSameResult(t, "chaos Q6", got, want, false)
			}
		}()
	}
	// Wait for the readers (writer keeps the cluster busy meanwhile),
	// then stop the write stream.
	readersWg.Wait()
	close(stopWriter)
	writerWg.Wait()

	// The crashed node must come back on its own: the breaker's probe
	// pings drain the injector's outage script, then the write log is
	// replayed and the backend re-admitted. If the crash consumed only a
	// read (so the controller never saw it), one more write trips it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := s.ctl.Snapshot()
		if len(s.ctl.DisabledBackends()) == 0 && cs.AutoRecoveries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 3 not auto-recovered: disabled=%v stats=%+v injector=%+v",
				s.ctl.DisabledBackends(), cs, crasher.Snapshot())
		}
		if cs.BreakerTrips == 0 {
			_, _ = s.ctl.Exec("delete from orders where o_orderkey = 89999999")
		}
		time.Sleep(time.Millisecond)
	}
	if w0, w3 := s.nodes[0].Watermark(), s.nodes[3].Watermark(); w0 != w3 {
		t.Fatalf("recovered replica lags: %d vs %d", w3, w0)
	}

	// Guarantee at least one engine-level backoff retry: with the writer
	// stopped, node 2's requests are sub-queries only, and every 3rd one
	// fails transiently.
	for i := 0; i < 4 && s.eng.Snapshot().BackoffRetries == 0; i++ {
		if _, err := s.ctl.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	// Post-chaos, the recovered cluster still answers exactly.
	got, err := s.ctl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-chaos Q6", got, want, false)

	st := s.eng.Snapshot()
	if st.BackoffRetries < 1 {
		t.Errorf("no backoff retries despite flaky node: %+v", st)
	}
	cs := s.ctl.Snapshot()
	if cs.BreakerTrips < 1 || cs.Probes < 1 || cs.AutoRecoveries < 1 {
		t.Errorf("controller stats: %+v", cs)
	}
	if ks := crasher.Snapshot(); ks.MidQueryKills != 1 || ks.Heals != 1 {
		t.Errorf("crash script did not run to completion: %+v", ks)
	}
}
