package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// lagNodes applies writes to only the first k nodes, leaving the rest
// behind — a controlled replica-divergence scenario.
func lagNodes(t *testing.T, s *stack, k int, stmts []string) {
	t.Helper()
	for _, text := range stmts {
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		id := s.db.NextWriteID()
		for i := 0; i < k; i++ {
			if _, err := s.nodes[i].ApplyWrite(id, st); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFreshnessReadsAtLaggingSnapshot(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxStaleness = 4
	s := buildStack(t, 3, opts)
	// Nodes 0 and 1 get two deletes; node 2 lags at watermark 0.
	lagNodes(t, s, 2, []string{
		"delete from orders where o_orderkey = 1",
		"delete from orders where o_orderkey = 2",
	})
	got, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders"))
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot = lagging node's watermark (0): the deletes are not seen,
	// but the result is still transactionally consistent.
	total := got.Rows[0][0].I
	base := int64(tpch.Cardinalities(testSF)["orders"])
	if total != base {
		t.Fatalf("stale read should see pre-delete count %d, got %d", base, total)
	}
	st := s.eng.Snapshot()
	if st.StaleReads != 1 || st.MaxObservedStaleness != 2 {
		t.Errorf("staleness stats: %+v", st)
	}
}

func TestFreshnessBoundExceeded(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxStaleness = 1
	opts.barrierTimeout = 50 * time.Millisecond
	s := buildStack(t, 2, opts)
	lagNodes(t, s, 1, []string{
		"delete from orders where o_orderkey = 1",
		"delete from orders where o_orderkey = 2",
		"delete from orders where o_orderkey = 3",
	})
	// Divergence is 3 > bound 1 and nothing will converge it: the query
	// must fail after the timeout rather than return inconsistent data.
	if _, err := s.eng.RunSVP(context.Background(), mustSel(t, "select count(*) from orders")); err == nil {
		t.Fatal("expected staleness-bound timeout")
	}
}

func TestFreshnessDoesNotBlockUpdates(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxStaleness = 100
	s := buildStack(t, 2, opts)
	// Even while the gate would normally be held during dispatch, writes
	// in freshness mode never wait. Hard to observe timing directly, so
	// assert the contract: a long SVP query and a write can interleave
	// and both finish quickly.
	done := make(chan error, 2)
	go func() {
		_, err := s.ctl.Query(tpch.MustQuery(1))
		done <- err
	}()
	go func() {
		_, err := s.ctl.Exec("delete from orders where o_orderkey = 5")
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock between freshness-mode query and update")
		}
	}
}

func TestFreshnessEquivalenceWhenConverged(t *testing.T) {
	// With all replicas converged, freshness mode returns exactly the
	// strict-mode answer.
	opts := DefaultOptions()
	opts.MaxStaleness = 8
	s := buildStack(t, 3, opts)
	for _, qn := range []int{1, 6} {
		text := tpch.MustQuery(qn)
		want := s.single(t, text)
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("fresh Q%d", qn), got, want, true)
	}
	if st := s.eng.Snapshot(); st.StaleReads != 0 {
		t.Errorf("converged replicas must not count stale reads: %+v", st)
	}
}

func mustSel(t *testing.T, text string) *sql.SelectStmt {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}
