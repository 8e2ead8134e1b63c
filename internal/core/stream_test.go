package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"apuama/internal/fault"
	"apuama/internal/obs"
	"apuama/internal/tpch"
)

// TestStreamingComposeOverlap is the incremental-gather acceptance test:
// with one node scripted 500ms slow, the gather must take the full
// straggler latency, but the first partial batch — the moment the
// composer starts consuming — must arrive long before that.
// Under the old materialized gather there was no first-batch event at
// all until a whole partial completed; composition started only after
// the last one.
func TestStreamingComposeOverlap(t *testing.T) {
	const lag = 500 * time.Millisecond
	opts := DefaultOptions()
	opts.QueryTimeout = 30 * time.Second
	reg := obs.NewRegistry()
	s := buildStackMetrics(t, 3, opts, reg)
	s.eng.Procs()[2].InjectFaults(fault.New(9).Slow(lag, 0))

	text := "select o_orderkey, o_totalprice from orders where o_totalprice > 1000"
	want := s.single(t, text)
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "overlap query", got, want, true)

	first := reg.HistogramSnapshot(obs.MGatherFirstBatch)
	gather := reg.HistogramSnapshot(obs.MGather)
	if first.Count != 1 || gather.Count != 1 {
		t.Fatalf("histogram counts: first_batch=%d gather=%d, want 1 each", first.Count, gather.Count)
	}
	if gather.Sum < lag*4/5 {
		t.Fatalf("gather took %v, expected it to wait out the %v straggler", gather.Sum, lag)
	}
	if first.Sum > lag/2 {
		t.Fatalf("first batch arrived after %v: composition did not overlap the %v straggler", first.Sum, lag)
	}
	st := s.eng.Snapshot()
	if st.StreamedBatches < 1 || st.StreamedRows < 1 {
		t.Fatalf("no streamed batches recorded: %+v", st)
	}
}

// TestStreamingGatherBudgetOne runs the oracle with the tightest
// backpressure budget: one in-flight batch per partition must only slow
// producers down, never change results.
func TestStreamingGatherBudgetOne(t *testing.T) {
	opts := DefaultOptions()
	opts.gatherBudget = 1
	s := buildStack(t, 4, opts)
	for _, qn := range tpch.QueryNumbers {
		text := tpch.MustQuery(qn)
		want := s.single(t, text)
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		assertSameResult(t, fmt.Sprintf("budget=1 Q%d", qn), got, want, true)
	}
}

// TestLimitPushdownOrdered: a plain rewrite with ORDER BY + LIMIT pushes
// the LIMIT into each partial (with the ordering) and still produces the
// exact global top-k.
func TestLimitPushdownOrdered(t *testing.T) {
	opts := DefaultOptions()
	s := buildStack(t, 3, opts)
	text := "select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey limit 10"
	rw, err := PlanSVP(mustSel(t, text), TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if rw.PushedLimit != 10 {
		t.Fatalf("PushedLimit = %d, want 10", rw.PushedLimit)
	}
	if rw.Partial.Limit == nil || *rw.Partial.Limit != 10 || len(rw.Partial.OrderBy) != 2 {
		t.Fatalf("partial did not keep LIMIT+ORDER BY: %s", rw.Partial.SQL())
	}
	want := s.single(t, text)
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "ordered limit", got, want, false)
	st := s.eng.Snapshot()
	// Each partition contributes at most k rows instead of its full range.
	if st.StreamedRows > 3*10 {
		t.Fatalf("pushdown ineffective: %d partial rows streamed, want <= 30", st.StreamedRows)
	}
	// A global ordering means every partition must report: no early stop.
	if st.LimitShortCircuits != 0 {
		t.Fatalf("ordered LIMIT must not short-circuit the gather: %+v", st)
	}
}

// TestLimitPushdownEarlyStop: without a global ordering the gather stops
// as soon as the committed partition prefix holds k rows, cancelling the
// remaining sub-queries.
func TestLimitPushdownEarlyStop(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = 30 * time.Second
	s := buildStack(t, 3, opts)
	text := "select o_orderkey from orders limit 5"
	want := s.single(t, "select count(*) from orders")
	total := want.Rows[0][0].I
	if total <= 5 {
		t.Fatalf("test table too small: %d orders", total)
	}
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(got.Rows))
	}
	// LIMIT without ORDER BY returns arbitrary rows; verify membership.
	all := s.single(t, "select o_orderkey from orders")
	valid := map[int64]bool{}
	for _, r := range all.Rows {
		valid[r[0].I] = true
	}
	seen := map[int64]bool{}
	for _, r := range got.Rows {
		if !valid[r[0].I] {
			t.Fatalf("row %v not in orders", r)
		}
		if seen[r[0].I] {
			t.Fatalf("duplicate row %v", r)
		}
		seen[r[0].I] = true
	}
	st := s.eng.Snapshot()
	if st.LimitShortCircuits != 1 {
		t.Fatalf("LimitShortCircuits = %d, want 1", st.LimitShortCircuits)
	}
}

// TestAggLimitNotPushed: aggregate rewrites must not push LIMIT below
// the aggregation (per-partition groups are partial, not final).
func TestAggLimitNotPushed(t *testing.T) {
	text := "select o_custkey, sum(o_totalprice) from orders group by o_custkey order by o_custkey limit 7"
	rw, err := PlanSVP(mustSel(t, text), TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if rw.PushedLimit != 0 || rw.Partial.Limit != nil {
		t.Fatalf("aggregate rewrite pushed LIMIT: %s", rw.Partial.SQL())
	}
	// The composition still applies the global LIMIT.
	if rw.Compose.Limit == nil || *rw.Compose.Limit != 7 {
		t.Fatalf("compose lost LIMIT: %s", rw.Compose.SQL())
	}
}

// TestStreamingRollbackOnMidStreamCrash: a node that crashes after
// streaming part of its partition must not leave its rows in the
// composition — the failover attempt's rows replace them exactly.
func TestStreamingRollbackOnMidStreamCrash(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = 30 * time.Second
	s := buildStack(t, 3, opts)
	// Crash node 0 on its first request; it self-heals after
	// rejecting one more, but this query's partition 0 fails over.
	s.eng.Procs()[0].InjectFaults(fault.New(3).CrashMidQueryAt(1, 1))
	text := tpch.MustQuery(1)
	want := s.single(t, text)
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, text))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "rollback", got, want, true)
	if st := s.eng.Snapshot(); st.SubQueryRetries < 1 {
		t.Fatalf("expected a failover, stats %+v", st)
	}
}

// TestComposerHonoursDeadline: a context cancelled before composition
// makes the sink refuse to compose and leave no composition table
// behind.
func TestComposerHonoursDeadline(t *testing.T) {
	s := buildStack(t, 2, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rw, err := PlanSVP(mustSel(t, tpch.MustQuery(1)), TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	sink := s.eng.newComposeSink(shapeOfRewrite(rw, 0), 1, nil)
	feedSink(t, sink, 0, 1, s.single(t, rw.Partial.SQL()).Rows)
	sink.commit(0, 1, nil)
	if _, err := sink.finish(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("finish under a cancelled context returned %v", err)
	}
	if live, created := s.eng.mem.Stats(); live != 0 || created != 0 {
		t.Fatalf("memdb holds %d relations, created %d; want none", live, created)
	}
}
