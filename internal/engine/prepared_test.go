package engine

import (
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
	const rangeSQL = "select count(*), sum(total) from orders where ok >= $1 and ok < $2"
	const twoIndexes = "select count(*), sum(price) from items where ok >= $1 and ok < $2 and tag > 'A'"
	for _, c := range []struct {
		name            string
		text            string
		force           bool
		planned, rebind []sqltypes.Value
		want            bool
	}{
		{"a range as wide", rangeSQL, false, ints(10, 20), ints(30, 40), true},
		{"a width that turns the scan sequential", rangeSQL, false, ints(10, 20), ints(1, 150), false},
		{"any width with sequential scans off", rangeSQL, true, ints(10, 20), ints(1, 150), true},
		{"an empty range", rangeSQL, true, ints(10, 20), ints(40, 30), false},
		{"another kind", rangeSQL, true, ints(10, 20), []sqltypes.Value{sqltypes.NewFloat(30), sqltypes.NewFloat(40)}, false},
		{"a NULL bound", rangeSQL, true, ints(10, 20), []sqltypes.Value{sqltypes.Null(), sqltypes.NewInt(40)}, false},
		{"the width that chose between two indexes kept", twoIndexes, true, ints(10, 20), ints(30, 40), true},
		{"the width that chose between two indexes changed", twoIndexes, true, ints(10, 20), ints(1, 190), false},
		{"another index won", "select count(*) from items where ok >= $1 and ok < $2 and tag = 'RED'", true, ints(10, 20), ints(30, 40), false},
		{"an equality", "select total from orders where ok = $1", true, ints(10), ints(30), false},
		{"the query's own bound", "select count(*) from orders where ok >= $1 and ok < $2 and ok >= 15", true, ints(10, 20), ints(30, 40), false},
		{"a filter", "select count(*) from orders where ok >= $1 and ok < $2 and total > $1", true, ints(10, 20), ints(30, 40), false},
		{"a projection", "select ok + $1 from orders where ok >= $1 and ok < $2", true, ints(10, 20), ints(30, 40), false},
		{"one side, the other open", "select count(*) from orders where ok >= $1", true, ints(10), ints(30), true},
		{"one side, the other a literal", "select count(*) from orders where ok >= $1 and ok < 100", true, ints(10), ints(30), false},
	} {
		sel := mustSelect(t, c.text)
		opts := QueryOpts{ForceIndexScan: c.force}
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
