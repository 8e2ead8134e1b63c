package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"apuama/internal/sqltypes"
)

func ints(vs ...int64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(vs))
	for i, v := range vs {
		out[i] = sqltypes.NewInt(v)
	}
	return out
}

// drainPlan opens p at the node's watermark with args re-bound (or as
// planned, for nil) and returns its rows rendered bit-exactly, or the
// error that stopped them.
func drainPlan(p *Prepared, opts QueryOpts) (string, error) {
	cur, err := p.OpenAt(p.nd.Watermark(), opts, nil)
	if err != nil {
		return "", err
	}
	defer cur.Close()
	var sb strings.Builder
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	for {
		if err := cur.Next(b); err != nil {
			return "", err
		}
		if b.Len() == 0 {
			return sb.String(), nil
		}
		for _, row := range b.Rows {
			fmt.Fprintf(&sb, "%#v\n", row)
		}
	}
}

// TestRebindOnlyWhereThePlanIsTheSame: a prepared plan re-binds to new
// arguments exactly when Prepare would build the same operator tree for
// them — then its EXPLAIN and rows are the fresh plan's — and otherwise
// refuses and stays as it was.
func TestRebindOnlyWhereThePlanIsTheSame(t *testing.T) {
	_, nd := newTestDB(t, 200, 3)
	// eqNode's orders also index total and odate, for point ranges over a
	// float and a date; colNode's orders are large enough for a columnar
	// scan.
	_, eqNode := newTestDB(t, 200, 3)
	for _, ddl := range []string{"create index orders_total on orders (total)", "create index orders_odate on orders (odate)"} {
		if _, err := eqNode.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	colDB, colNode := newTestDB(t, 300, 1)
	colDB.SetColumnar(true)
	const rangeSQL = "select count(*), sum(total) from orders where ok >= $1 and ok < $2"
	const itemsRange = "select count(*), sum(price) from items where ok >= $1 and ok < $2"
	i, f, s, d := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewDate
	withRange := func(lo, hi int64, vs ...sqltypes.Value) []sqltypes.Value { return append(ints(lo, hi), vs...) }
	const twoIndexes = "select count(*), sum(price) from items where ok >= $1 and ok < $2 and tag > 'A'"
	for _, c := range []struct {
		name            string
		text            string
		force           bool
		planned, rebind []sqltypes.Value
		want            bool
		nd              *Node // nil: nd
	}{
		{"a range as wide", rangeSQL, false, ints(10, 20), ints(30, 40), true, nil},
		{"a width that turns the scan sequential", rangeSQL, false, ints(10, 20), ints(1, 150), false, nil},
		{"any width with sequential scans off", rangeSQL, true, ints(10, 20), ints(1, 150), true, nil},
		{"an empty range", rangeSQL, true, ints(10, 20), ints(40, 30), false, nil},
		{"another kind", rangeSQL, true, ints(10, 20), []sqltypes.Value{sqltypes.NewFloat(30), sqltypes.NewFloat(40)}, false, nil},
		{"a NULL bound", rangeSQL, true, ints(10, 20), []sqltypes.Value{sqltypes.Null(), sqltypes.NewInt(40)}, false, nil},
		{"the width that chose between two indexes kept", twoIndexes, true, ints(10, 20), ints(30, 40), true, nil},
		{"the width that chose between two indexes changed", twoIndexes, true, ints(10, 20), ints(1, 190), false, nil},
		{"another index won", "select count(*) from items where ok >= $1 and ok < $2 and tag = 'RED'", true, ints(10, 20), ints(30, 40), false, nil},
		// An equality on an indexed column is a point slot: both bounds of
		// one range, re-bound to any ordered value of its kind.
		{"an equality over an int", "select total from orders where ok = $1", true, ints(10), ints(30), true, nil},
		{"an equality over an int, sequential scans allowed", "select total from orders where ok = $1", false, ints(10), ints(30), true, nil},
		{"an equality over a float", "select ok from orders where total = $1", true, []sqltypes.Value{f(100)}, []sqltypes.Value{f(350)}, true, eqNode},
		{"an equality over a date", "select ok, total from orders where odate = $1", true, []sqltypes.Value{d(8010)}, []sqltypes.Value{d(8020)}, true, eqNode},
		{"an equality over a string", "select ok, ln from items where tag = $1", true, []sqltypes.Value{s("RED")}, []sqltypes.Value{s("BLUE")}, true, nil},
		{"an equality in a join", "select o.total, i.price from orders o, items i where o.ok = i.ok and o.ok = $1", true, ints(10), ints(30), true, nil},
		{"an equality re-bound to another kind", "select total from orders where ok = $1", true, ints(10), []sqltypes.Value{f(30)}, false, nil},
		{"an equality over a string re-bound to an int", "select ok, ln from items where tag = $1", true, []sqltypes.Value{s("RED")}, ints(3), false, nil},
		{"an equality over a date re-bound to NULL", "select ok from orders where odate = $1", true, []sqltypes.Value{d(8010)}, []sqltypes.Value{sqltypes.Null()}, false, eqNode},
		{"an equality re-bound out of the exact-int domain", "select total from orders where ok = $1", true, ints(10), ints(1 << 60), false, nil},
		{"an equality planned out of the exact-int domain", "select total from orders where ok = $1", true, ints(1 << 60), ints(10), false, nil},
		{"an equality beside another bound", "select total from orders where ok = $1 and ok >= 5", true, ints(10), ints(30), false, nil},
		{"an equality on an unindexed column, a filter", "select ok from orders where cust = $1", false, ints(3), ints(5), true, nil},
		{"an equality on an unindexed column under a columnar scan", "select ok from orders where cust = $1", false, ints(3), ints(5), false, colNode},
		{"an equality on an indexed column under a columnar scan", "select total from orders where ok = $1", false, ints(10), ints(30), false, colNode},
		{"the query's own bound", "select count(*) from orders where ok >= $1 and ok < $2 and ok >= 15", true, ints(10, 20), ints(30, 40), false, nil},
		{"a filter", "select count(*) from orders where ok >= $1 and ok < $2 and total > $1", true, ints(10, 20), ints(30, 40), false, nil},
		{"a projection", "select ok + $1 from orders where ok >= $1 and ok < $2", true, ints(10, 20), ints(30, 40), false, nil},
		{"one side, the other open", "select count(*) from orders where ok >= $1", true, ints(10), ints(30), true, nil},
		{"one side, the other a literal", "select count(*) from orders where ok >= $1 and ok < 100", true, ints(10), ints(30), false, nil},

		// A filter slot (what sql.Parameterize lifts) re-binds to any value
		// of its kind: comparisons, BETWEEN and IN lists over ints, floats,
		// dates and strings. Each has a case where the value must spill.
		// The range stays, so only the filter's new value tells the
		// answers apart.
		{"cmp over an int", rangeSQL + " and cust < $3", true, withRange(10, 40, i(4)), withRange(10, 40, i(6)), true, nil},
		{"cmp over an int, re-bound to a float", rangeSQL + " and cust < $3", true, withRange(10, 40, i(4)), withRange(10, 40, f(6)), false, nil},
		{"cmp over a float", rangeSQL + " and total > $3", true, withRange(10, 40, f(150)), withRange(10, 40, f(355.5)), true, nil},
		{"cmp over a float, an int planned", rangeSQL + " and total > $3", true, withRange(10, 40, i(150)), withRange(10, 40, f(355.5)), false, nil},
		{"cmp over a date", rangeSQL + " and odate <= $3", true, withRange(10, 40, d(8015)), withRange(10, 40, d(8035)), true, nil},
		{"cmp over a date, re-bound to NULL", rangeSQL + " and odate <= $3", true, withRange(10, 40, d(8015)), withRange(10, 40, sqltypes.Null()), false, nil},
		{"cmp over a string", itemsRange + " and tag <> $3", true, withRange(10, 40, s("RED")), withRange(10, 40, s("NONE")), true, nil},
		{"cmp over a string on an indexed column", itemsRange + " and tag > $3", true, withRange(10, 40, s("GREEN")), withRange(10, 40, s("BLUE")), false, nil},
		{"between ints", rangeSQL + " and cust between $3 and $4", true, withRange(10, 40, i(2), i(4)), withRange(10, 40, i(3), i(7)), true, nil},
		{"between ints, one folded", rangeSQL + " and cust between $3 + 0 and $4", true, withRange(10, 40, i(2), i(4)), withRange(10, 40, i(3), i(7)), false, nil},
		{"between floats", rangeSQL + " and total between $3 and $4", true, withRange(10, 40, f(120), f(170)), withRange(10, 40, f(305), f(365)), true, nil},
		{"between floats, re-bound to an int", rangeSQL + " and total between $3 and $4", true, withRange(10, 40, f(120), f(170)), withRange(10, 40, f(305), i(365)), false, nil},
		{"between dates", rangeSQL + " and odate between $3 and $4", true, withRange(10, 40, d(8012), d(8016)), withRange(10, 40, d(8031), d(8038)), true, nil},
		{"between dates, re-bound to strings", rangeSQL + " and odate between $3 and $4", true, withRange(10, 40, d(8012), d(8016)), withRange(10, 40, s("a"), s("b")), false, nil},
		{"not between strings", itemsRange + " and tag not between $3 and $4", true, withRange(10, 40, s("A"), s("C")), withRange(10, 40, s("C"), s("H")), true, nil},
		{"between strings on an indexed column", itemsRange + " and tag between $3 and $4", true, withRange(10, 40, s("A"), s("C")), withRange(10, 40, s("C"), s("H")), false, nil},
		{"in ints", rangeSQL + " and cust in ($3, $4)", true, withRange(10, 40, i(2), i(5)), withRange(10, 40, i(1), i(3)), true, nil},
		{"in ints, re-bound to a date", rangeSQL + " and cust in ($3, $4)", true, withRange(10, 40, i(2), i(5)), withRange(10, 40, d(1), i(3)), false, nil},
		{"in floats", rangeSQL + " and total in ($3, $4)", true, withRange(10, 40, f(120), f(150)), withRange(10, 40, f(310), f(390)), true, nil},
		{"in floats, one also in a projection", "select total + $3 from orders where ok >= $1 and ok < $2 and total in ($3, $4)", true, withRange(10, 40, f(120), f(150)), withRange(10, 40, f(310), f(390)), false, nil},
		{"in dates", rangeSQL + " and odate in ($3, $4)", true, withRange(10, 40, d(8012), d(8015)), withRange(10, 40, d(8031), d(8036)), true, nil},
		{"in dates, re-bound to NULL", rangeSQL + " and odate in ($3, $4)", true, withRange(10, 40, d(8012), d(8015)), withRange(10, 40, d(8031), sqltypes.Null()), false, nil},
		{"in strings", itemsRange + " and tag in ($3, $4)", true, withRange(10, 40, s("RED"), s("BLUE")), withRange(10, 40, s("GREEN"), s("BLUE")), true, nil},
		{"in strings, re-bound to an int", itemsRange + " and tag in ($3, $4)", true, withRange(10, 40, s("RED"), s("BLUE")), withRange(10, 40, s("GREEN"), i(1)), false, nil},
		{"a filter slot under sequential scans", rangeSQL + " and cust < $3", false, withRange(10, 40, i(4)), withRange(10, 40, i(6)), true, nil},
	} {
		sel := mustSelect(t, c.text)
		opts := QueryOpts{ForceIndexScan: c.force}
		nd := cmp.Or(c.nd, nd)
		p, err := nd.Prepare(sel, c.planned, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := fmt.Sprint(p.Explain().Rows)
		if got := p.Rebind(c.rebind, opts); got != c.want {
			t.Errorf("%s: Rebind(%v) = %v, want %v\n%s", c.name, c.rebind, got, c.want, before)
			continue
		}
		if !c.want {
			if after := fmt.Sprint(p.Explain().Rows); after != before {
				t.Errorf("%s: a refused Rebind changed the plan\n%s\n%s", c.name, before, after)
			}
			continue
		}
		fresh, err := nd.Prepare(sel, c.rebind, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.planned) > 2 || len(c.planned) == 1 {
			planned, err := nd.Prepare(sel, c.planned, opts)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := drainPlan(planned, opts)
			if after, _ := drainPlan(fresh, opts); before == after {
				t.Errorf("%s: the filter's two values answer alike; the case proves nothing", c.name)
			}
		}
		if got, want := fmt.Sprint(p.Explain().Rows), fmt.Sprint(fresh.Explain().Rows); got != want {
			t.Errorf("%s: re-bound plan\n%s\nfresh plan\n%s", c.name, got, want)
		}
		got, err := drainPlan(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := drainPlan(fresh, opts); got != want {
			t.Errorf("%s: re-bound plan returns\n%s\nfresh plan\n%s", c.name, got, want)
		}
	}

	// ForceIndexScan, the planner input of QueryOpts, is part of the plan;
	// Parallelism plans nothing.
	p, err := nd.Prepare(mustSelect(t, rangeSQL), ints(10, 20), QueryOpts{ForceIndexScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rebind(ints(30, 40), QueryOpts{}) {
		t.Error("Rebind accepted another ForceIndexScan")
	}
	if !p.Rebind(ints(30, 40), QueryOpts{ForceIndexScan: true, Parallelism: 4}) {
		t.Error("Rebind refused another Parallelism")
	}
	if _, err := nd.Query(rangeSQL); err == nil || !strings.Contains(err.Error(), "no argument for placeholder $1") {
		t.Errorf("a placeholder without an argument: %v", err)
	}
}

// TestPreparedPlanReopens: one prepared plan re-opens — re-bound to new
// bounds each time — after a full drain, after an early close, after a
// mid-stream evaluation error and after a cancel, through a projection and
// an aggregate, and every re-open answers like a fresh plan and hands back
// every pooled buffer it took. The expression fails at ok = 2000.
func TestPreparedPlanReopens(t *testing.T) {
	_, nd := newItemsDB(t, 3000, 3)
	for _, text := range []string{
		"select ok, ln, price / (ok - 2000) from items where ok >= $1 and ok < $2",
		"select tag, count(*), sum(price / (ok - 2000)) from items where ok >= $1 and ok < $2 group by tag",
	} {
		sel := mustSelect(t, text)
		opts := QueryOpts{ForceIndexScan: true, BatchSize: 8}
		label := text
		p, err := nd.Prepare(sel, ints(1, 1500), opts)
		if err != nil {
			t.Fatal(err)
		}
		rebind := func(args []sqltypes.Value) {
			t.Helper()
			if !p.Rebind(args, opts) {
				t.Fatalf("%s: Rebind(%v) refused", label, args)
			}
		}
		full := func(args []sqltypes.Value, step string) {
			t.Helper()
			rebind(args)
			got, err := drainPlan(p, opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", label, step, err)
			}
			fresh, err := nd.Prepare(sel, args, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := drainPlan(fresh, opts); got != want {
				t.Errorf("%s, %s: re-opened plan returns\n%s\nfresh plan\n%s", label, step, got, want)
			}
		}
		if n := auditPools(func() {
			full(ints(1, 1500), "first open")

			rebind(ints(500, 1900))
			if cur, err := p.OpenAt(nd.Watermark(), opts, nil); err == nil {
				b := sqltypes.GetBatch()
				if err := cur.Next(b); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				sqltypes.PutBatch(b)
				cur.Close() // early: the scan is mid-range
			} else {
				t.Errorf("%s: %v", label, err)
			}
			full(ints(100, 1600), "after an early close")

			rebind(ints(1, 2500))
			if _, err := drainPlan(p, opts); err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("%s: %v, want division by zero", label, err)
			}
			full(ints(1, 1999), "after a mid-stream error")

			ctx, cancel := context.WithCancel(context.Background())
			copts := opts
			copts.Ctx = ctx
			rebind(ints(2, 1998))
			if cur, err := p.OpenAt(nd.Watermark(), copts, nil); err == nil {
				b := sqltypes.GetBatch()
				for err == nil {
					if err = cur.Next(b); err == nil && b.Len() == 0 {
						break
					}
					cancel()
				}
				sqltypes.PutBatch(b)
				cur.Close()
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("%s: cancelled stream: %v", label, err)
				}
			} else if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled open: %v", label, err)
			}
			cancel()
			full(ints(1, 1500), "after a cancel")
		}); n != 0 {
			t.Errorf("%s: the re-opens kept %d pooled buffers", label, n)
		}
	}
}

// TestForceIndexScanStaysInItsQuery: a query's ForceIndexScan is an input
// of its own plan. While a cursor planned with it is open on a node, other
// work on that node plans under the node's setting: a non-selective range
// still EXPLAINs as a sequential scan, and a non-selective DELETE charges
// what it charges with no cursor open.
func TestForceIndexScanStaysInItsQuery(t *testing.T) {
	deleteCharge := func(forcedCursorOpen bool) (charge int64, plan string) {
		t.Helper()
		_, nd := newTestDB(t, 300, 2)
		if forcedCursorOpen {
			cur, err := nd.OpenQueryStmtAt(mustSelect(t, "select ln, price from items where ok >= 1"), nd.Watermark(), QueryOpts{ForceIndexScan: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
		}
		res, err := nd.Explain(mustSelect(t, "select count(*) from orders where ok >= 1"))
		if err != nil {
			t.Fatal(err)
		}
		before := nd.Meter().Virtual()
		if _, err := nd.Exec("delete from orders where ok >= 20"); err != nil {
			t.Fatal(err)
		}
		return int64(nd.Meter().Virtual() - before), fmt.Sprint(res.Rows)
	}
	want, _ := deleteCharge(false)
	got, plan := deleteCharge(true)
	if !strings.Contains(plan, "Seq Scan on orders") {
		t.Errorf("beside a forced cursor, a non-selective range plans\n%s", plan)
	}
	if got != want {
		t.Errorf("beside a forced cursor, DELETE charges %d ns, %d without", got, want)
	}
}

// TestFreshUntilWhatItReadMoves: a plan kept across queries stays fresh
// until something it was planned from moves — a write to a relation it
// read (its statistics move with writes), an index added, the node's
// enable_seqscan setting — and a write to a relation it did not read
// leaves it fresh. A spilled plan is never fresh.
func TestFreshUntilWhatItReadMoves(t *testing.T) {
	_, nd := newTestDB(t, 200, 3)
	prepare := func(text string, args ...sqltypes.Value) *Prepared {
		t.Helper()
		p, err := nd.Prepare(mustSelect(t, text), args, QueryOpts{ForceIndexScan: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const ordersOnly = "select count(*) from orders where ok >= $1 and ok < $2 and cust < $3"
	p := prepare(ordersOnly, sqltypes.NewInt(10), sqltypes.NewInt(20), sqltypes.NewInt(3))
	if !p.Fresh() {
		t.Fatal("a plan is stale as soon as it is planned")
	}
	if _, err := nd.Exec("delete from items where ok = 1"); err != nil {
		t.Fatal(err)
	}
	if !p.Fresh() {
		t.Error("a write to a relation the plan did not read made it stale")
	}
	if _, err := nd.Exec("delete from orders where ok = 1"); err != nil {
		t.Fatal(err)
	}
	if p.Fresh() {
		t.Error("a write to a relation the plan read left it fresh")
	}
	p = prepare(ordersOnly, sqltypes.NewInt(10), sqltypes.NewInt(20), sqltypes.NewInt(3))
	if _, err := nd.Exec("create index orders_cust on orders (cust)"); err != nil {
		t.Fatal(err)
	}
	if p.Fresh() {
		t.Error("a new index left the plan fresh")
	}
	p = prepare(ordersOnly, sqltypes.NewInt(10), sqltypes.NewInt(20), sqltypes.NewInt(3))
	nd.Set("enable_seqscan", sqltypes.NewBool(false))
	if p.Fresh() {
		t.Error("another enable_seqscan left the plan fresh")
	}
	if p := prepare("select ok + $1 from orders where ok >= $2", sqltypes.NewInt(1), sqltypes.NewInt(5)); p.Fresh() {
		t.Error("a spilled plan is fresh")
	}
}
