package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/obs"
	"apuama/internal/sqltypes"
)

// newParallelDB builds the standard two-table test database with a small
// page size, so even the modest test relations span enough heap pages to
// decompose into several morsels.
func newParallelDB(t *testing.T, nOrders, itemsPer int) (*Database, *Node) {
	t.Helper()
	cfg := costmodel.TestConfig()
	cfg.PageSize = 1024
	db := NewDatabase(cfg)
	nd := NewNode(0, db)
	mustExec := func(s string) {
		t.Helper()
		if _, err := nd.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
	mustExec(`create table orders (ok bigint, cust bigint, total double, odate date, primary key (ok))`)
	mustExec(`create table items (ok bigint, ln bigint, qty double, price double, tag varchar, primary key (ok, ln))`)
	mustExec(`create index items_tag on items (tag)`)
	rel, _ := db.Relation("orders")
	irel, _ := db.Relation("items")
	tags := []string{"RED", "GREEN", "BLUE"}
	for ok := 1; ok <= nOrders; ok++ {
		row := sqltypes.Row{
			sqltypes.NewInt(int64(ok)),
			sqltypes.NewInt(int64(ok%7 + 1)),
			sqltypes.NewFloat(float64(ok) * 10),
			sqltypes.NewDate(int64(8000 + ok%100)),
		}
		if _, err := rel.Insert(0, row); err != nil {
			t.Fatal(err)
		}
		for ln := 1; ln <= itemsPer; ln++ {
			irow := sqltypes.Row{
				sqltypes.NewInt(int64(ok)),
				sqltypes.NewInt(int64(ln)),
				sqltypes.NewFloat(float64(ln)),
				sqltypes.NewFloat(float64(ok*ln) + 0.5),
				sqltypes.NewString(tags[(ok+ln)%3]),
			}
			if _, err := irel.Insert(0, irow); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, nd
}

func queryAt(t *testing.T, nd *Node, sqlText string, opts QueryOpts) *Result {
	t.Helper()
	stmt := mustSelect(t, sqlText)
	res, err := nd.QueryStmtAt(stmt, nd.Watermark(), opts)
	if err != nil {
		t.Fatalf("query %q (par=%d): %v", sqlText, opts.Parallelism, err)
	}
	return res
}

// fingerprint serializes a result bit-exactly: floats by their IEEE bit
// pattern, so two equal fingerprints mean bit-identical output.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Cols)
	for _, row := range res.Rows {
		for _, v := range row {
			if v.K == sqltypes.KindFloat {
				fmt.Fprintf(&b, "f%016x|", math.Float64bits(v.F))
				continue
			}
			fmt.Fprintf(&b, "%v|", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parallelQueries is the correctness sweep: every shape the plan rewriter
// handles (grouped/scalar aggregation, filtered scan + projection, index
// range scan, join probe, sort/limit/distinct above the merge point) plus
// the serial-fallback shapes (sub-plan expressions, DISTINCT aggregates).
var parallelQueries = []string{
	// Q1 shape: grouped aggregation over a full scan.
	"select tag, count(*), sum(price), avg(qty), min(ok), max(ok) from items group by tag",
	// Q6 shape: filtered scalar aggregate.
	"select sum(price * qty) from items where price > 100 and qty < 3",
	"select count(*) from items",
	// Filtered scan + projection (order preserved, no sort).
	"select ok, ln, price * 2 from items where price > 500",
	// Index range scan under an aggregate (narrow range -> index path).
	"select sum(price) from items where ok between 100 and 160",
	// Index range scan projected.
	"select ok, price from items where ok between 200 and 260 and qty = 1",
	// Wide range (seq scan + filter).
	"select sum(price) from items where ok between 100 and 450",
	// Join with parallel probe side.
	"select o.cust, count(*) from orders o, items i where o.ok = i.ok group by o.cust order by o.cust",
	// Sort / limit / distinct above the merge point.
	"select ok, price from items where qty = 2 order by price desc limit 7",
	"select distinct tag from items order by tag",
	// HAVING above a parallel partial aggregate.
	"select tag, sum(price) from items group by tag having sum(price) > 1000",
	// CASE / BETWEEN / IN / LIKE in the fragment.
	"select sum(case when tag = 'RED' then price else 0 end) from items where ok between 1 and 2000",
	"select count(*) from items where tag in ('RED', 'BLUE') and tag like 'R%'",
	// Serial fallbacks: correlated EXISTS and a DISTINCT aggregate.
	"select count(*) from orders where exists (select 1 from items where items.ok = orders.ok and qty = 2)",
	"select count(distinct tag) from items",
}

// TestParallelMatchesSerial runs the sweep at degrees 2 and 4 against the
// serial answer. The dataset's floats are all multiples of 0.5 with exact
// sums, so re-associated float folds are still bit-exact and the results
// must match exactly — including row order, which the gather operators
// preserve.
func TestParallelMatchesSerial(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	for _, sqlText := range parallelQueries {
		want := queryAt(t, nd, sqlText, QueryOpts{Parallelism: 1})
		for _, degree := range []int{2, 4} {
			got := queryAt(t, nd, sqlText, QueryOpts{Parallelism: degree})
			if fingerprint(got) != fingerprint(want) {
				t.Errorf("degree %d diverges from serial for %q:\ngot:\n%s\nwant:\n%s",
					degree, sqlText, fingerprint(got), fingerprint(want))
			}
		}
	}
	if q, m, _ := nd.ParallelStats(); q == 0 || m == 0 {
		t.Fatalf("no parallel fragments ran (queries=%d morsels=%d): sweep is vacuous", q, m)
	}
}

// TestParallelSmallBatches re-runs part of the sweep through the
// streaming cursor with a tiny batch size, exercising the morsel-order
// streaming path and worker backpressure.
func TestParallelSmallBatches(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	for _, sqlText := range []string{
		"select ok, ln, price from items where price > 100",
		"select tag, count(*), sum(price) from items group by tag",
	} {
		want := queryAt(t, nd, sqlText, QueryOpts{Parallelism: 1})
		stmt := mustSelect(t, sqlText)
		cur, err := nd.OpenQueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 4, BatchSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		var rows []sqltypes.Row
		for {
			b := sqltypes.GetBatch()
			if err := cur.Next(b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				sqltypes.PutBatch(b)
				break
			}
			for _, r := range b.Rows {
				rows = append(rows, r.Clone())
			}
			sqltypes.PutBatch(b)
		}
		cur.Close()
		got := &Result{Cols: want.Cols, Rows: rows}
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("streamed parallel result diverges for %q", sqlText)
		}
	}
}

// TestParallelDeterminism asserts run-to-run bit-identical output at a
// fixed degree: the Q1 and Q6 shapes executed 100x at degree 4 must
// produce one fingerprint. This is the determinism rule (per-morsel
// partials merged in morsel-index order) under real goroutine races.
func TestParallelDeterminism(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	for _, sqlText := range []string{
		"select tag, count(*), sum(price), avg(qty) from items group by tag",
		"select sum(price * qty) from items where price > 100 and qty < 3",
	} {
		first := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: 4}))
		for i := 1; i < 100; i++ {
			fp := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: 4}))
			if fp != first {
				t.Fatalf("run %d of %q diverged at degree 4:\n%s\nvs first:\n%s", i, sqlText, fp, first)
			}
		}
	}
}

// TestParallelDegreeIndependence: the merge order depends only on the
// data, so any two parallel degrees produce bit-identical output too.
func TestParallelDegreeIndependence(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	sqlText := "select tag, sum(price), avg(qty) from items group by tag"
	base := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: 2}))
	for _, degree := range []int{3, 4, 8} {
		if fp := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: degree})); fp != base {
			t.Fatalf("degree %d diverges from degree 2", degree)
		}
	}
}

// TestParallelUpdatesVisible runs the parallel path across write rounds:
// each morsel applies the same snapshot visibility check as the serial
// scan, so deletes must be reflected immediately.
func TestParallelUpdatesVisible(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	for round := 0; round < 5; round++ {
		if _, err := nd.Exec(fmt.Sprintf("delete from items where ok = %d", round*3+1)); err != nil {
			t.Fatal(err)
		}
		sqlText := "select count(*), sum(price) from items"
		want := queryAt(t, nd, sqlText, QueryOpts{Parallelism: 1})
		got := queryAt(t, nd, sqlText, QueryOpts{Parallelism: 4})
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("round %d: parallel result stale after delete", round)
		}
	}
}

// TestParallelStatsAndMetrics checks the observability surface: the
// node-level counters advance, work stealing occurs on an imbalanced
// shard assignment, and the obs registry mirrors the counters.
func TestParallelStatsAndMetrics(t *testing.T) {
	_, nd := newParallelDB(t, 800, 3)
	reg := obs.NewRegistry()
	nd.SetObs(reg)
	for i := 0; i < 4; i++ {
		queryAt(t, nd, "select sum(price) from items where price > 2000", QueryOpts{Parallelism: 4})
	}
	q, m, _ := nd.ParallelStats()
	if q != 4 {
		t.Errorf("parallel queries = %d, want 4", q)
	}
	if m == 0 {
		t.Errorf("no morsels recorded")
	}
	if got := reg.CounterValue(obs.Labeled(obs.MEngineParallelQueries, "node", "0")); got != q {
		t.Errorf("registry mirrors %d parallel queries, node reports %d", got, q)
	}
	if got := reg.CounterValue(obs.Labeled(obs.MEngineMorsels, "node", "0")); got != m {
		t.Errorf("registry mirrors %d morsels, node reports %d", got, m)
	}
}

// TestParallelWorkStealing forces an imbalanced load (one worker's shard
// holds all the surviving rows) and verifies steals are recorded.
func TestParallelWorkStealing(t *testing.T) {
	var q morselQueue
	// The queue is reset for every run of its owner: the second run, with
	// fewer morsels and workers, starts from clean cursors and counts.
	for _, c := range []struct{ morsels, workers, self, steals int }{
		{16, 4, 3, 12}, // 4 of the 16 live in worker 3's own shard; the other 12 are steals
		{5, 2, 1, 3},   // morsels 1 and 3 are worker 1's
	} {
		q.reset(c.morsels, c.workers)
		// One worker claims everything; the others never claim.
		seen := map[int]bool{}
		for {
			mi, ok := q.next(c.self)
			if !ok {
				break
			}
			if seen[mi] || mi < 0 || mi >= c.morsels {
				t.Fatalf("morsel %d claimed twice or out of range", mi)
			}
			seen[mi] = true
		}
		if len(seen) != c.morsels {
			t.Fatalf("claimed %d morsels, want %d", len(seen), c.morsels)
		}
		if got := q.steals.Load(); got != int64(c.steals) {
			t.Fatalf("%d morsels on %d workers: steals = %d, want %d", c.morsels, c.workers, got, c.steals)
		}
	}
}

// TestParallelCancellation: a cancelled context aborts the query, with
// workers checking the context between morsels.
func TestParallelCancellation(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stmt := mustSelect(t, "select tag, sum(price) from items group by tag")
	_, err := nd.QueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 4, Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled parallel query succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelMidstreamCancel cancels the context after the scan gather
// has started streaming and its workers have run ahead into the
// backpressure wait. The stop must reach goroutines parked on the scan's
// condition variable (lost-wakeup regression: setErr raising stop
// without a broadcast left the parked worker, and with it close(),
// waiting forever).
func TestParallelMidstreamCancel(t *testing.T) {
	_, nd := newParallelDB(t, 3000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stmt := mustSelect(t, "select ok, ln, price from items")
	cur, err := nd.OpenQueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 2, Ctx: ctx, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		b := sqltypes.GetBatch()
		defer sqltypes.PutBatch(b)
		// Consume one batch, then let the workers fill the run-ahead
		// window and park before the cancel lands.
		if err := cur.Next(b); err != nil {
			cur.Close()
			errc <- err
			return
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
		for {
			if err := cur.Next(b); err != nil {
				cur.Close()
				errc <- err
				return
			}
			if b.Len() == 0 {
				cur.Close()
				errc <- nil
				return
			}
		}
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after mid-stream cancellation (lost wakeup)")
	}
}

// TestParallelMidstreamError drives a scan gather whose fragment errors
// deep into the table (division by zero at ok=2000 of 3000) through a
// deliberately slow consumer, so the error fires while other workers sit
// in the backpressure wait. The error must surface through the cursor
// and Close must return — the same lost-wakeup interleaving as above,
// reached through fragSpec eval failure instead of cancellation.
func TestParallelMidstreamError(t *testing.T) {
	_, nd := newParallelDB(t, 3000, 3)
	stmt := mustSelect(t, "select ok, price / (ok - 2000) from items")
	errc := make(chan error, 1)
	go func() {
		cur, err := nd.OpenQueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 2, BatchSize: 64})
		if err != nil {
			errc <- err
			return
		}
		b := sqltypes.GetBatch()
		defer sqltypes.PutBatch(b)
		for {
			if err := cur.Next(b); err != nil {
				cur.Close()
				errc <- err
				return
			}
			if b.Len() == 0 {
				cur.Close()
				errc <- nil
				return
			}
			time.Sleep(time.Millisecond) // keep workers ahead of the consumer
		}
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err = %v, want division by zero", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after mid-stream evaluation error (lost wakeup)")
	}
}

// gateExpr is a filter that passes every row until it meets the trigger
// value in column 0, then signals armed, blocks until release closes,
// and fails with an injected evaluation error. It freezes one worker
// mid-morsel so a test can stage the exact goroutine interleaving it
// needs before letting the error fire.
type gateExpr struct {
	trigger int64
	armed   chan struct{} // closed by eval on reaching the trigger row
	release chan struct{} // closed by the test to let eval return its error
	once    sync.Once
}

func (e *gateExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	if ec.row[0].I == e.trigger {
		e.once.Do(func() { close(e.armed) })
		<-e.release
		return sqltypes.NewBool(false), errors.New("gate: injected morsel failure")
	}
	return sqltypes.NewBool(true), nil
}

// TestParallelScanErrorWakesParkedWaiters stages the lost-wakeup
// interleaving deterministically: worker A freezes inside morsel 0 (the
// gate filter), the consumer parks in next waiting for morsel 0, worker
// B races ahead and parks in the backpressure wait, and only then does
// A's morsel fail. setErr must wake both parked goroutines — before the
// notify hook, A exited without a broadcast, the done-callback broadcast
// needed B to exit first, and the query hung forever.
func TestParallelScanErrorWakesParkedWaiters(t *testing.T) {
	db, nd := newParallelDB(t, 3000, 3)
	rel, err := db.Relation("items")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateExpr{trigger: 1, armed: make(chan struct{}), release: make(chan struct{})}
	s := &parallelScanOp{frag: &fragSpec{rel: rel, filters: []bexpr{gate}}, degree: 2}
	ex := &execCtx{node: nd, snapshot: nd.Watermark(), meter: nd.meter}
	if err := s.open(ex); err != nil {
		t.Fatal(err)
	}
	// The staged deadlock needs worker B to outrun the whole run-ahead
	// window while A sits in morsel 0.
	if len(s.morsels) <= scanWindow*s.degree+2 {
		t.Fatalf("table spans %d morsels, need > %d for a backpressured worker", len(s.morsels), scanWindow*s.degree+2)
	}
	select {
	case <-gate.armed: // A is frozen inside morsel 0
	case <-time.After(30 * time.Second):
		t.Fatal("gate never armed: no worker reached morsel 0")
	}
	nextErr := make(chan error, 1)
	go func() {
		b := sqltypes.GetBatch()
		defer sqltypes.PutBatch(b)
		nextErr <- s.next(ex, b)
	}()
	// Let the consumer park on morsel 0 and B park in the backpressure
	// wait, then release A into its error.
	time.Sleep(100 * time.Millisecond)
	close(gate.release)
	select {
	case err := <-nextErr:
		if err == nil || !strings.Contains(err.Error(), "injected morsel failure") {
			t.Fatalf("next returned %v, want the injected morsel failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer parked in next never woke after the worker error (lost wakeup)")
	}
	closed := make(chan struct{})
	go func() { s.close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("close hung waiting for a parked worker (lost wakeup)")
	}
}

// TestParallelExplain: EXPLAIN shows the gather operator, its degree and
// the merge point once a default degree is configured.
func TestParallelExplain(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3)
	nd.SetDefaultParallelism(4)
	defer nd.SetDefaultParallelism(0)

	res, err := nd.Query("explain select tag, sum(price) from items where price > 10 group by tag")
	if err != nil {
		t.Fatal(err)
	}
	plan := res.String()
	if !strings.Contains(plan, "Gather (parallel degree 4, merge at partial aggregate)") {
		t.Errorf("agg explain missing gather line:\n%s", plan)
	}
	if !strings.Contains(plan, "Parallel Seq Scan on items") {
		t.Errorf("agg explain missing parallel scan line:\n%s", plan)
	}

	res, err = nd.Query("explain select ok, price from items where ok between 10 and 50")
	if err != nil {
		t.Fatal(err)
	}
	plan = res.String()
	if !strings.Contains(plan, "Gather (parallel degree 4, merge at scan)") {
		t.Errorf("scan explain missing gather line:\n%s", plan)
	}
	if !strings.Contains(plan, "Parallel Index Scan") {
		t.Errorf("scan explain missing parallel index scan line:\n%s", plan)
	}

	// Serial-fallback shapes must not show a gather.
	res, err = nd.Query("explain select count(distinct tag) from items")
	if err != nil {
		t.Fatal(err)
	}
	if plan = res.String(); strings.Contains(plan, "Gather") {
		t.Errorf("DISTINCT aggregate should stay serial:\n%s", plan)
	}
}

// TestExplainOptsParallelism: ExplainOpts resolves the degree from the
// same QueryOpts execution would use, so an explicit per-query degree
// shows in the plan even when the node default is unset (where plain
// Explain stays serial: auto mode gates this small relation out).
func TestExplainOptsParallelism(t *testing.T) {
	_, nd := newParallelDB(t, 500, 3) // below parallelMinRows
	stmt := mustSelect(t, "select tag, sum(price) from items group by tag")
	res, err := nd.ExplainOpts(stmt, QueryOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.String(); !strings.Contains(plan, "Gather (parallel degree 2, merge at partial aggregate)") {
		t.Errorf("ExplainOpts{Parallelism: 2} missing gather line:\n%s", plan)
	}
	res, err = nd.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.String(); strings.Contains(plan, "Gather") {
		t.Errorf("default Explain should stay serial below the size floor:\n%s", plan)
	}
}

// TestResolveParallelism covers the degree-resolution ladder: explicit
// request > node default > auto, with auto gated and capped.
func TestResolveParallelism(t *testing.T) {
	_, nd := newParallelDB(t, 10, 1)
	if d, gated := nd.resolveParallelism(4); d != 4 || gated {
		t.Errorf("explicit 4 -> (%d, %v)", d, gated)
	}
	if d, gated := nd.resolveParallelism(1000); d != 64 || gated {
		t.Errorf("explicit 1000 -> (%d, %v), want capped 64", d, gated)
	}
	nd.SetDefaultParallelism(3)
	if d, gated := nd.resolveParallelism(0); d != 3 || gated {
		t.Errorf("node default 3 -> (%d, %v)", d, gated)
	}
	nd.SetDefaultParallelism(0)
	d, gated := nd.resolveParallelism(0)
	if !gated || d < 1 || d > maxParallelism {
		t.Errorf("auto -> (%d, %v), want gated degree in [1,%d]", d, gated, maxParallelism)
	}
}

// TestParallelSizeGate: auto mode must leave small relations serial
// (worker startup would dominate), while an explicit degree bypasses the
// floor.
func TestParallelSizeGate(t *testing.T) {
	_, nd := newParallelDB(t, 10, 1) // far below parallelMinRows
	stmt := mustSelect(t, "select count(*) from items")
	plan := func() op {
		root, _, err := nd.planSelect(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	if containsParallelOp(parallelizePlan(nd, plan(), 4, true)) {
		t.Error("auto mode parallelized a relation below the size floor")
	}
	if !containsParallelOp(parallelizePlan(nd, plan(), 4, false)) {
		t.Error("explicit degree should bypass the size floor")
	}
}

// containsParallelOp reports whether the plan holds a gather operator
// anywhere (the rewrite may leave serial operators above it).
func containsParallelOp(o op) bool {
	switch v := o.(type) {
	case *parallelAggOp, *parallelScanOp:
		return true
	case *projectOp:
		return containsParallelOp(v.child)
	case *filterOp:
		return containsParallelOp(v.child)
	case *sortOp:
		return containsParallelOp(v.child)
	case *limitOp:
		return containsParallelOp(v.child)
	case *distinctOp:
		return containsParallelOp(v.child)
	case *aggOp:
		return containsParallelOp(v.child)
	case *hashJoinOp:
		return containsParallelOp(v.build) || containsParallelOp(v.probe)
	}
	return false
}
