package engine

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"apuama/internal/sqltypes"
)

// auditPools counts pool gets against puts while fn runs.
func auditPools(fn func()) int64 {
	var n atomic.Int64
	poolBalance.Store(&n)
	defer poolBalance.Store(nil)
	fn()
	return n.Load()
}

// failingProbe is a join whose probe side fails to open after the build
// side is in the table: the items scan's bound raises when the scan opens
// (a cancelled sub-query fails at the same point). orders, filtered down
// to one customer, is the smaller side and builds.
const failingProbe = `from orders o, items i where o.ok = i.ok and o.cust = 3 and i.ok >= 1 / 0`

// TestFailedOpenReleasesPooledBuffers: an open that fails below an
// aggregate, a sort, a projection, a sub-plan or the cursor still hands
// back every pooled buffer the partial open took — the join's build rows
// and integer table, its probe stream's batch, the failing scan's RID
// list: every get is matched by a put.
func TestFailedOpenReleasesPooledBuffers(t *testing.T) {
	_, nd := newTestDB(t, 300, 3)
	ex := &execCtx{node: nd, snapshot: nd.Watermark(), meter: nd.meter}
	for _, c := range []struct {
		text  string
		under func(root op) op // the operator whose open is called
	}{
		{"select o.cust, sum(i.price) " + failingProbe + " group by o.cust",
			func(root op) op { return root.(*projectOp).child.(*aggOp) }},
		{"select o.cust, i.price " + failingProbe + " order by i.price",
			func(root op) op { return root.(*sortOp) }},
	} {
		root, _, err := nd.planSelect(mustSelect(t, c.text))
		if err != nil {
			t.Fatal(err)
		}
		o := c.under(root)
		var openErr error
		if n := auditPools(func() { openErr = o.open(ex) }); n != 0 {
			t.Errorf("%s: a failed %T.open kept %d pooled buffers", c.text, o, n)
		}
		if openErr == nil || !strings.Contains(openErr.Error(), "division by zero") {
			t.Errorf("%s: open returned %v, want division by zero", c.text, openErr)
		}
		o.close() // the caller closes after a failed open; nothing is left to release twice
	}

	// Through the cursor and through a correlated sub-plan.
	for _, text := range []string{
		"select count(*) " + failingProbe,
		"select o.ok, i.ln " + failingProbe,
		"select count(*) from orders x where exists (select * " + failingProbe + " and o.ok = x.ok)",
	} {
		var qerr error
		if n := auditPools(func() { _, qerr = nd.Query(text) }); n != 0 {
			t.Errorf("%s: a failed query kept %d pooled buffers", text, n)
		}
		if qerr == nil || !strings.Contains(qerr.Error(), "division by zero") {
			t.Errorf("%s: %v, want division by zero", text, qerr)
		}
	}

	// The audit sees what a successful query takes, and gets it all back.
	if n := auditPools(func() {
		q(t, nd, "select o.cust, sum(i.price) from orders o, items i where o.ok = i.ok group by o.cust")
	}); n != 0 {
		t.Errorf("a successful join kept %d pooled buffers", n)
	}
}

// bytesPerRun is the heap a statement allocates per serial execution,
// after a warm-up run.
func bytesPerRun(t *testing.T, nd *Node, text string, runs int) float64 {
	t.Helper()
	sel := mustSelect(t, text)
	run := func() {
		if _, err := nd.QueryStmtAt(sel, nd.Watermark(), QueryOpts{Parallelism: 1}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestJoinAggregateBytesPerProbeRow pins a Q3/Q5-shaped sub-query — a
// join whose output is the probe side of a second join, under an
// aggregate — to a bounded number of heap bytes per probe row that does
// not grow with the row count: both joins reuse one tuple buffer per
// batch, so what is left is per execution (planning, the aggregate's
// groups), not per matched row. Slab tuples cost ≈ 40 B per output column
// per match — over 400 B per probe row here.
func TestJoinAggregateBytesPerProbeRow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	const text = `select o.cust, sum(i.price * i.qty), count(*) from orders o, items i, orders o2
		where o.ok = i.ok and o2.ok = i.ok and o2.total > 0 group by o.cust`
	const itemsPer = 3
	var perRow [2]float64
	for k, nOrders := range []int{1000, 4000} {
		_, nd := newTestDB(t, nOrders, itemsPer)
		reusing, bad, err := nd.ReuseReport(mustSelect(t, text), 1)
		if err != nil || len(bad) > 0 || reusing != 2 {
			t.Fatalf("plan: %d reusing joins, %v, %v; want both joins reusing", reusing, bad, err)
		}
		perRow[k] = bytesPerRun(t, nd, text, 10) / float64(nOrders*itemsPer)
		t.Logf("%d probe rows: %.1f B per probe row", nOrders*itemsPer, perRow[k])
	}
	if perRow[0] > 64 {
		t.Errorf("%.1f B per probe row at 3 000 rows, want <= 64", perRow[0])
	}
	if perRow[1] > perRow[0] {
		t.Errorf("bytes per probe row grow with the row count: %.1f at 3 000 rows, %.1f at 12 000", perRow[0], perRow[1])
	}
}

// TestExistsProbeAllocatesNothingPerOuterRow pins a Q4-shaped correlated
// EXISTS: after warm-up, deciding it for an outer row — binding the
// parameter, opening the index scan on the parameter's key, reading the
// first batch, closing — allocates nothing.
func TestExistsProbeAllocatesNothingPerOuterRow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	const nOrders = 1000
	_, nd := newTestDB(t, nOrders, 3)
	root, _, err := nd.planSelect(mustSelect(t, `select count(*) from orders o
		where exists (select * from items i where i.ok = o.ok and i.qty = 2 and i.price > 1001)`))
	if err != nil {
		t.Fatal(err)
	}
	exists := root.(*projectOp).child.(*aggOp).child.(*filterOp).cond.(*existsExpr)
	if _, ok := exists.sub.root.(*indexScanOp); !ok {
		t.Fatalf("the sub-plan is a %T, want an index scan on the parameter", exists.sub.root)
	}
	rel, err := nd.DB().Relation("orders")
	if err != nil {
		t.Fatal(err)
	}
	var outer []sqltypes.Row
	for _, p := range rel.PageSnapshot() {
		for s := int32(0); s < int32(p.Count()); s++ {
			outer = append(outer, p.Row(s))
		}
	}
	ec := &evalCtx{ex: &execCtx{node: nd, snapshot: nd.Watermark(), meter: nd.meter}}
	found := 0
	probe := func() {
		found = 0
		for _, row := range outer {
			ec.row = row
			ok, err := exists.sub.hasRow(ec)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				found++
			}
		}
	}
	probe()
	if found != nOrders/2 {
		t.Fatalf("EXISTS held for %d of %d orders, want %d", found, len(outer), nOrders/2)
	}
	if allocs := testing.AllocsPerRun(5, probe); allocs != 0 {
		t.Errorf("%d correlated EXISTS probes allocate %.0f objects, want 0", len(outer), allocs)
	}
}
