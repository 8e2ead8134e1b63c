package engine

import (
	"context"
	"runtime"
	"runtime/debug"
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
// list, arena chunks, an aggregate's table: every get is matched by a put.
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

	// Arena chunks. Below, o ⋈ o2 is the build side of a join with o3 (or
	// with items, four per order so they probe), so its tuples are cut from
	// the upper join's arena. A released arena keeps its chunk list's
	// capacity: a non-zero one after the failure shows the arena held chunks
	// when it hit it.
	_, nd = newTestDB(t, 300, 4)
	ex = &execCtx{node: nd, snapshot: nd.Watermark(), meter: nd.meter}
	topJoin := func(t *testing.T, text string) (*hashJoinOp, *hashJoinOp) {
		t.Helper()
		root, _, err := nd.planSelect(mustSelect(t, text))
		if err != nil {
			t.Fatal(err)
		}
		top := root.(*projectOp).child.(*aggOp).child.(*hashJoinOp)
		return top, top.build.(*hashJoinOp)
	}
	// A probe whose open fails after the table is filled.
	top, _ := topJoin(t, "select count(*) from orders o, orders o2, items i where o.ok = o2.ok and o2.ok = i.ok and i.ok >= 1 / 0")
	var openErr error
	if n := auditPools(func() { openErr = top.open(ex) }); n != 0 || openErr == nil || cap(top.kept.chunks) == 0 {
		t.Errorf("probe fails after the build: open returned %v, the arena took %d chunks, %d pooled buffers kept", openErr, cap(top.kept.chunks), n)
	}
	top.close()
	// A build child whose own build fails midway: a residual on o ⋈ o2
	// copies the first batch of survivors into the middle join's arena and
	// raises in the second (ok 280).
	top, mid := topJoin(t, `select count(*) from orders o, orders o2, orders o3, items i
		where o.ok = o2.ok and o2.ok = o3.ok and o3.ok = i.ok and o.ok + 1 / (o2.ok - 280) >= o2.ok - 1`)
	if n := auditPools(func() { openErr = top.open(ex) }); n != 0 || openErr == nil || !mid.build.(*filterOp).copies || cap(mid.kept.chunks) == 0 {
		t.Errorf("the build child's build fails: open returned %v, the arena took %d chunks, %d pooled buffers kept", openErr, cap(mid.kept.chunks), n)
	}
	top.close()
	// A sub-query cancelled mid-probe: the cursor is closed after its first
	// batch, with the table's tuples in the arena.
	if n := auditPools(func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, err := nd.OpenQueryStmtAt(mustSelect(t, "select o.cust, i.price from orders o, orders o2, items i where o.ok = o2.ok and o2.ok = i.ok"),
			nd.Watermark(), QueryOpts{BatchSize: 7, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		b := sqltypes.GetBatch()
		defer sqltypes.PutBatch(b)
		if err := cur.Next(b); err != nil || b.Len() == 0 {
			t.Errorf("first batch: %d rows, %v", b.Len(), err)
		}
		cancel()
		cur.Next(b) // may still deliver rows of the probe batch in hand, or report the cancellation
		cur.Close()
	}); n != 0 {
		t.Errorf("a sub-query cancelled mid-probe kept %d pooled buffers", n)
	}

	// An aggregate whose scan raises midway, and one cancelled after its
	// first batch: the table the rows before filled goes back to the pools.
	// The expression fails at ok = 2000; the cancelled scan stops at its
	// second context check. A released table keeps its chunk list's
	// capacity: a non-zero one shows rows had filled it.
	_, nd = newItemsDB(t, 3000, 3)
	for _, c := range []struct {
		name, where string
		ctx         context.Context
		want        string
	}{
		{"an error mid-scan", "ok < 2500", nil, "division by zero"},
		{"a cancel after the first batch", "ok < 1999", newCancelAfter(1), "context canceled"},
	} {
		sel := mustSelect(t, "select tag, count(*), sum(price / (ok - 2000)) from items where ok >= 1 and "+c.where+" group by tag")
		p, err := nd.Prepare(sel, nil, QueryOpts{ForceIndexScan: true})
		if err != nil {
			t.Fatal(err)
		}
		agg := p.root.(*projectOp).child.(*aggOp)
		var openErr error
		n := auditPools(func() { _, openErr = p.OpenAt(nd.Watermark(), QueryOpts{Ctx: c.ctx}, nil) })
		if filled := cap(agg.table.states.chunks) > 0; n != 0 || openErr == nil || !strings.Contains(openErr.Error(), c.want) || !filled {
			t.Errorf("%s: open returned %v (want %s), table filled %v, %d pooled buffers kept", c.name, openErr, c.want, filled, n)
		}
	}
}

// cancelAfter is a context whose Err turns Canceled after n checks. A
// scan checks it before each batch it gathers, so a run is cancelled
// after its first n batches.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// bytesPerRun is the heap a statement allocates per serial execution,
// after a warm-up run: the least of three rounds of runs, each logged. A
// sync.Pool keeps one buffer per P that no other P can take, so the first
// run the scheduler moves to a P since the last collection allocates one
// buffer of each pool it uses afresh; that is paid per move, not per row,
// and the round it lands in reads high.
func bytesPerRun(t *testing.T, nd *Node, text string, runs int) float64 {
	t.Helper()
	sel := mustSelect(t, text)
	return bytesPer(t, runs, func() {
		if _, err := nd.QueryStmtAt(sel, nd.Watermark(), QueryOpts{}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	})
}

// bytesPer is bytesPerRun for any run. It holds the collector off while
// it measures, so no round pays for pools a collection emptied — as
// under a full suite's load, where one did in every round — and restores
// it after; TotalAlloc still counts every allocation, so a buffer the
// code stops giving back to its pool still shows.
func bytesPer(t *testing.T, runs int, run func()) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	var rounds [3]float64
	for r := range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		rounds[r] = float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	t.Logf("%.0f B per run by round", rounds)
	return min(rounds[0], rounds[1], rounds[2])
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
		homes, err := nd.TupleReport(mustSelect(t, text))
		if err != nil || len(homes.Bad) > 0 || homes.PerBatch != 2 {
			t.Fatalf("plan: %d joins cut per-batch tuples, %v, %v; want both", homes.PerBatch, homes.Bad, err)
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

// TestAggregateBytesPerGroup pins an SVP sub-query's shape — one prepared
// grouped aggregate, re-opened for partition after partition — to a
// bounded number of heap bytes per group: groups, their keys and states
// and the aggregate's output rows are cut from pooled chunks that every
// run hands back, so a run allocates the projection's output row (48 B
// per group here) and a constant. A fresh group, key copy, state slice
// and output row per group, as aggregates had before, cost 680 B per
// group here.
func TestAggregateBytesPerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	const parts, width = 4, 3000 // orders per partition, three items each
	_, nd := newItemsDB(t, parts*width, 3)
	sel := mustSelect(t, "select sum(price) + max(qty) from items where ok >= $1 and ok < $2 group by ok")
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	opts := QueryOpts{ForceIndexScan: true}
	p, err := nd.Prepare(sel, ints(1, 1+width), opts)
	if err != nil {
		t.Fatal(err)
	}
	part := 0
	run := func() {
		lo := int64(1 + part%parts*width)
		part++
		if !p.Rebind(ints(lo, lo+width), opts) {
			t.Fatalf("Rebind refused partition %d", part)
		}
		cur, err := p.OpenAt(nd.Watermark(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		groups := 0
		for {
			if err := cur.Next(b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				break
			}
			groups += b.Len()
		}
		if groups != width {
			t.Fatalf("%d groups, want %d", groups, width)
		}
	}
	perGroup := bytesPer(t, 2*parts, run) / width
	t.Logf("%.1f B per group", perGroup)
	if perGroup > 64 {
		t.Errorf("%.1f B per group, want <= 64", perGroup)
	}
}

// TestJoinBuildBytesPerBuildRow pins a Q5-shaped build chain — o ⋈ o2
// builds the join with o3, which builds the join with items, under an
// aggregate — to the heap bytes each build row adds after warm-up: the
// slope between two sizes, so what a run pays once (planning, the
// aggregate) drops out. Each chained join's tuples are cut from the arena
// of the join that keeps them, pooled chunks that close hands back; slab
// tuples cost 40 B per column per build row, 146 B here.
func TestJoinBuildBytesPerBuildRow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	const text = `select o.cust, sum(i.price), count(*) from orders o, orders o2, orders o3, items i
		where o.ok = o2.ok and o2.ok = o3.ok and o3.ok = i.ok group by o.cust`
	sizes := [2]int{1000, 4000}
	var perRun [2]float64
	for k, nOrders := range sizes {
		_, nd := newTestDB(t, nOrders, 3)
		homes, err := nd.TupleReport(mustSelect(t, text))
		if err != nil || len(homes.Bad) > 0 || homes.Kept != 2 {
			t.Fatalf("plan: %d joins cut from a keeper's arena, %v, %v; want the two chained build sides", homes.Kept, homes.Bad, err)
		}
		perRun[k] = bytesPerRun(t, nd, text, 10)
		t.Logf("%d orders: %.0f B per run", nOrders, perRun[k])
	}
	// Two chained build sides of nOrders rows each.
	perRow := (perRun[1] - perRun[0]) / float64(2*(sizes[1]-sizes[0]))
	t.Logf("%.2f B per build row", perRow)
	if perRow > 2 {
		t.Errorf("%.2f B per build row, want <= 2", perRow)
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
