package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/obs"
	"apuama/internal/sqltypes"
)

// newItemsDB builds the standard two-table test database with a small
// page size, so even the modest test relations span many heap pages and
// column segments.
func newItemsDB(t *testing.T, nOrders, itemsPer int) (*Database, *Node) {
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
		t.Fatalf("query %q: %v", sqlText, err)
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

// sweepQueries covers the shapes a sub-query takes: grouped and scalar
// aggregation, a filtered scan under a projection, index range scans, a
// join, sort/limit/distinct, HAVING, CASE/IN/LIKE, a correlated EXISTS
// and a DISTINCT aggregate.
var sweepQueries = []string{
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
	// Join.
	"select o.cust, count(*) from orders o, items i where o.ok = i.ok group by o.cust order by o.cust",
	// Sort / limit / distinct.
	"select ok, price from items where qty = 2 order by price desc limit 7",
	"select distinct tag from items order by tag",
	// HAVING above an aggregate.
	"select tag, sum(price) from items group by tag having sum(price) > 1000",
	// CASE / BETWEEN / IN / LIKE.
	"select sum(case when tag = 'RED' then price else 0 end) from items where ok between 1 and 2000",
	"select count(*) from items where tag in ('RED', 'BLUE') and tag like 'R%'",
	// A correlated EXISTS and a DISTINCT aggregate.
	"select count(*) from orders where exists (select 1 from items where items.ok = orders.ok and qty = 2)",
	"select count(distinct tag) from items",
}

// TestParallelDegreeIndependence: QueryOpts.Parallelism is ignored — every
// query runs serially on the goroutine that opens it — so any requested
// degree gives the serial plan, its rows bit for bit and its modelled
// charge. Each degree runs on a fresh node over the same data, so every
// run starts from a cold buffer pool and their charges compare exactly.
func TestParallelDegreeIndependence(t *testing.T) {
	db, _ := newItemsDB(t, 500, 3)
	for _, sqlText := range sweepQueries {
		var want, wantPlan string
		var wantCharge time.Duration
		for i, degree := range []int{1, 0, 2, 4, 8} {
			nd := NewNode(i+1, db)
			before := nd.Meter().Virtual()
			got := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: degree}))
			charge := nd.Meter().Virtual() - before
			plan, err := nd.ExplainOpts(mustSelect(t, sqlText), QueryOpts{Parallelism: degree})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want, wantPlan, wantCharge = got, plan.String(), charge
				continue
			}
			if got != want {
				t.Errorf("Parallelism %d diverges from 1 for %q:\ngot:\n%s\nwant:\n%s", degree, sqlText, got, want)
			}
			if charge != wantCharge {
				t.Errorf("Parallelism %d charged %v for %q, Parallelism 1 charged %v", degree, charge, sqlText, wantCharge)
			}
			if plan.String() != wantPlan {
				t.Errorf("Parallelism %d plans %q differently:\n%s\nwant:\n%s", degree, sqlText, plan, wantPlan)
			}
		}
	}
}

// TestParallelSmallBatches streams part of the sweep through the cursor
// with a tiny batch size: the rows must be the one-shot result's.
func TestParallelSmallBatches(t *testing.T) {
	_, nd := newItemsDB(t, 500, 3)
	for _, sqlText := range []string{
		"select ok, ln, price from items where price > 100",
		"select tag, count(*), sum(price) from items group by tag",
	} {
		want := queryAt(t, nd, sqlText, QueryOpts{})
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
			t.Errorf("streamed result diverges for %q", sqlText)
		}
	}
}

// TestParallelDeterminism asserts run-to-run bit-identical output: the Q1
// and Q6 shapes executed 100x must produce one fingerprint.
func TestParallelDeterminism(t *testing.T) {
	_, nd := newItemsDB(t, 500, 3)
	for _, sqlText := range []string{
		"select tag, count(*), sum(price), avg(qty) from items group by tag",
		"select sum(price * qty) from items where price > 100 and qty < 3",
	} {
		first := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: 4}))
		for i := 1; i < 100; i++ {
			fp := fingerprint(queryAt(t, nd, sqlText, QueryOpts{Parallelism: 4}))
			if fp != first {
				t.Fatalf("run %d of %q diverged:\n%s\nvs first:\n%s", i, sqlText, fp, first)
			}
		}
	}
}

// TestParallelUpdatesVisible runs a scan across write rounds: each round's
// deletes must be reflected immediately, whatever degree is asked for.
func TestParallelUpdatesVisible(t *testing.T) {
	_, nd := newItemsDB(t, 500, 3)
	total := 1500
	for round := 0; round < 5; round++ {
		if _, err := nd.Exec(fmt.Sprintf("delete from items where ok = %d", round*3+1)); err != nil {
			t.Fatal(err)
		}
		total -= 3
		for _, degree := range []int{1, 4} {
			res := queryAt(t, nd, "select count(*) from items", QueryOpts{Parallelism: degree})
			if got := res.Rows[0][0].I; got != int64(total) {
				t.Fatalf("round %d, Parallelism %d: count = %d after delete, want %d", round, degree, got, total)
			}
		}
	}
}

// TestParallelStatsAndMetrics pins the intra-node parallelism surface that
// remains for its readers: ParallelStats reads 0 whatever a query asks
// for, and a wired registry holds no morsel metric.
func TestParallelStatsAndMetrics(t *testing.T) {
	_, nd := newItemsDB(t, 800, 3)
	reg := obs.NewRegistry()
	nd.SetObs(reg)
	for _, degree := range []int{0, 1, 4} {
		queryAt(t, nd, "select sum(price) from items where price > 2000", QueryOpts{Parallelism: degree})
		queryAt(t, nd, "select ok, price from items where ok between 200 and 260", QueryOpts{Parallelism: degree})
	}
	if q, m, s := nd.ParallelStats(); q != 0 || m != 0 || s != 0 {
		t.Errorf("ParallelStats = (%d, %d, %d), want all 0", q, m, s)
	}
	for _, name := range reg.MetricNames() {
		if strings.Contains(name, "morsel") || strings.Contains(name, "parallel") || strings.Contains(name, "worker") {
			t.Errorf("registry holds %s", name)
		}
	}
}

// TestParallelCancellation: a cancelled context aborts the query at the
// scan's first batch, under an aggregate and under a projection.
func TestParallelCancellation(t *testing.T) {
	_, nd := newItemsDB(t, 500, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sqlText := range []string{
		"select tag, sum(price) from items group by tag",
		"select ok, price from items where ok between 10 and 50",
	} {
		stmt := mustSelect(t, sqlText)
		_, err := nd.QueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 4, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%q: err = %v, want context.Canceled", sqlText, err)
		}
	}
}

// TestParallelMidstreamCancel cancels the context after a scan has begun
// streaming: the next batch reports context.Canceled and the cursor
// closes.
func TestParallelMidstreamCancel(t *testing.T) {
	_, nd := newItemsDB(t, 3000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stmt := mustSelect(t, "select ok, ln, price from items")
	cur, err := nd.OpenQueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 2, Ctx: ctx, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	if err := cur.Next(b); err != nil || b.Len() == 0 {
		t.Fatalf("first batch: %d rows, err %v", b.Len(), err)
	}
	cancel()
	for {
		err := cur.Next(b)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if b.Len() == 0 {
			t.Fatal("the scan ran to its end after the cancel")
		}
	}
}

// TestParallelMidstreamError drives a scan whose projection errors deep
// into the table (division by zero at ok=2000 of 3000) through a small
// batch size: the error must surface through the cursor after rows have
// streamed.
func TestParallelMidstreamError(t *testing.T) {
	_, nd := newItemsDB(t, 3000, 3)
	stmt := mustSelect(t, "select ok, price / (ok - 2000) from items")
	cur, err := nd.OpenQueryStmtAt(stmt, nd.Watermark(), QueryOpts{Parallelism: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	streamed := 0
	for {
		err := cur.Next(b)
		if err != nil {
			if !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("err = %v, want division by zero", err)
			}
			break
		}
		if b.Len() == 0 {
			t.Fatal("the query ended without its evaluation error")
		}
		streamed += b.Len()
	}
	if streamed == 0 {
		t.Fatal("the error surfaced before any row streamed")
	}
}

// TestExplainOptsParallelism: ExplainOpts plans exactly as execution would,
// and a requested degree changes nothing — no plan holds a Gather.
func TestExplainOptsParallelism(t *testing.T) {
	_, nd := newItemsDB(t, 500, 3)
	for _, sqlText := range []string{
		"select tag, sum(price) from items where price > 10 group by tag",
		"select ok, price from items where ok between 10 and 50",
	} {
		stmt := mustSelect(t, sqlText)
		want, err := nd.Explain(stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, degree := range []int{1, 2, 8} {
			res, err := nd.ExplainOpts(stmt, QueryOpts{Parallelism: degree})
			if err != nil {
				t.Fatal(err)
			}
			if plan := res.String(); plan != want.String() || strings.Contains(plan, "Gather") || strings.Contains(plan, "Parallel") {
				t.Errorf("ExplainOpts{Parallelism: %d} of %q:\n%s\nwant:\n%s", degree, sqlText, plan, want)
			}
		}
	}
}
