package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"apuama/internal/sqltypes"
)

// boundsDB is the fixture of the bound-intersection tests: orders keyed
// 1..n on the clustered primary key `ok`, three items per order, and a
// secondary index on the (cyclic) order date.
func boundsDB(t *testing.T, n int) *Node {
	t.Helper()
	_, nd := newTestDB(t, n, 3)
	if _, err := nd.Exec("create index orders_odate on orders (odate)"); err != nil {
		t.Fatal(err)
	}
	return nd
}

// pagesHolding counts the heap pages of table that hold at least one row
// whose leading column satisfies in: what an index scan over exactly the
// qualifying interval has to touch, and no more.
func pagesHolding(t *testing.T, nd *Node, table string, in func(k int64) bool) int64 {
	t.Helper()
	rel, err := nd.db.Relation(table)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range rel.PageSnapshot() {
		for s := int32(0); s < int32(p.Count()); s++ {
			if in(p.Row(s)[0].I) {
				n++
				break
			}
		}
	}
	return n
}

// touches runs fn against a cold statistics window and returns how many
// heap-page accesses the node's buffer pool saw.
func touches(nd *Node, fn func()) int64 {
	nd.Pool().ResetStats()
	fn()
	hits, misses := nd.Pool().Stats()
	return hits + misses
}

// seqReference runs the statement with its key column wrapped so that no
// conjunct is sargable: the planner has no access path and must scan the
// heap, whatever enable_seqscan says.
func seqReference(t *testing.T, nd *Node, sqlText, col string) *Result {
	t.Helper()
	ref := strings.ReplaceAll(sqlText, col, "("+col+" + 0)")
	ref = strings.Replace(ref, "select ("+col+" + 0)", "select "+col, 1)
	nd.Set("enable_seqscan", sqltypes.NewBool(true))
	root, _, err := nd.planSelect(mustSelect(t, ref))
	if err != nil {
		t.Fatalf("reference %q: %v", ref, err)
	}
	if name := opName(root); name != "seqScanOp" {
		t.Fatalf("reference %q planned a %s", ref, name)
	}
	return q(t, nd, ref)
}

func sameRows(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !sqltypes.RowsEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestBoundIntersection: for the chosen index column the planner keeps
// the tightest bound per side. Every case must return exactly the rows of
// a heap scan, in the same order, from the serial and the degree-4 morsel
// plan alike — and touch only the heap pages of the effective interval:
// none when it is empty, one for a point, the range's own otherwise.
func TestBoundIntersection(t *testing.T) {
	const n = 3000
	nd := boundsDB(t, n)
	d := func(day int64) string { return "date '" + sqltypes.NewDate(day).DateString() + "'" }
	between := func(lo, hi int64) func(int64) bool {
		return func(k int64) bool { return k >= lo && k <= hi }
	}
	none := func(int64) bool { return false }
	cases := []struct {
		name, where string
		in          func(k int64) bool // the effective key interval
		explain     string
	}{
		{"equality inside a range", "ok = 50 and ok >= 10 and ok < 90", between(50, 50), "(ok = 50)"},
		{"range then equality", "ok >= 10 and ok < 90 and ok = 50", between(50, 50), "(ok = 50)"},
		{"equality outside the range", "ok = 5 and ok >= 10 and ok < 90", none, "(empty range)"},
		{"equality on the exclusive edge", "ok = 90 and ok >= 10 and ok < 90", none, "(empty range)"},
		{"equality on the inclusive edge", "ok = 10 and ok >= 10 and ok < 90", between(10, 10), "(ok = 10)"},
		{"two equalities", "ok = 10 and ok = 11", none, "(empty range)"},
		{"two lows", "ok > 10 and ok >= 400 and ok < 450", between(400, 449), "(ok >= 400 and ok < 450)"},
		{"two highs", "ok >= 400 and ok <= 600 and ok < 450", between(400, 449), "(ok >= 400 and ok < 450)"},
		{"exclusive beats inclusive on a tie", "ok >= 400 and ok > 400 and ok <= 450 and ok < 450", between(401, 449), "(ok > 400 and ok < 450)"},
		{"half-open", "ok >= 2144 and ok < 2612", between(2144, 2611), "(ok >= 2144 and ok < 2612)"},
		{"closed", "ok >= 400 and ok <= 450", between(400, 450), "(ok >= 400 and ok <= 450)"},
		{"between inside a range", "ok between 300 and 500 and ok >= 400 and ok < 450", between(400, 449), "(ok >= 400 and ok < 450)"},
		{"between with lo > hi", "ok between 60 and 40", none, "(empty range)"},
		{"const op col flips", "400 <= ok and 450 > ok and 10 < ok", between(400, 449), "(ok >= 400 and ok < 450)"},
		{"int against float", "ok >= 12 and ok >= 399.5 and ok < 450", between(400, 449), "(ok >= 399.5 and ok < 450)"},
		{"float exclusive ties an int", "ok >= 400 and ok > 400.0 and ok < 450", between(401, 449), "(ok > 400.0 and ok < 450)"},
		{"folded arithmetic", "ok >= 100 * 4 and ok < 500 - 50 and ok >= 7", between(400, 449), "(ok >= 400 and ok < 450)"},
		{"past the domain", "ok >= 5000 and ok < 6000", none, "(ok >= 5000 and ok < 6000)"},
		{"NULL literal", "ok = null and ok >= 10", none, "(empty range)"},
		{"NULL bound", "ok >= null and ok < 90", none, "(empty range)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sqlText := "select ok, total from orders where " + c.where
			want := seqReference(t, nd, sqlText, "ok")
			var wantKeys int
			for k := int64(1); k <= n; k++ {
				if c.in(k) {
					wantKeys++
				}
			}
			if len(want.Rows) != wantKeys {
				t.Fatalf("the case's interval holds %d keys, the heap scan found %d rows", wantKeys, len(want.Rows))
			}
			wantPages := pagesHolding(t, nd, "orders", c.in)

			nd.Set("enable_seqscan", sqltypes.NewBool(false))
			defer nd.Set("enable_seqscan", sqltypes.NewBool(true))
			sel := mustSelect(t, sqlText)
			for _, degree := range []int{1, 4} {
				label := fmt.Sprintf("degree %d", degree)
				var got *Result
				touched := touches(nd, func() {
					var err error
					got, err = nd.QueryStmtAt(sel, nd.Watermark(), QueryOpts{Parallelism: degree})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				})
				sameRows(t, label, got, want)
				if touched != wantPages {
					t.Errorf("%s: touched %d heap pages, the interval lies on %d", label, touched, wantPages)
				}
				plan, err := nd.ExplainOpts(sel, QueryOpts{Parallelism: degree})
				if err != nil {
					t.Fatal(err)
				}
				line := "Index Scan using orders_pkey on orders " + c.explain
				if degree > 1 {
					line = "Parallel " + line
				}
				if !strings.Contains(plan.String(), line) {
					t.Errorf("%s: plan lacks %q:\n%s", label, line, plan)
				}
			}
		})
	}

	// Date arithmetic folds before it intersects (the secondary index on
	// odate; order dates cycle through days 8000..8099).
	t.Run("date arithmetic", func(t *testing.T) {
		where := fmt.Sprintf("odate >= %s and odate < %s + interval '3' day and odate < %s and odate > %s - interval '1' year",
			d(8010), d(8010), d(8050), d(8010))
		sqlText := "select odate, ok from orders where " + where + " order by ok"
		want := seqReference(t, nd, sqlText, "odate")
		if len(want.Rows) != 3*n/100 {
			t.Fatalf("reference found %d rows, want %d", len(want.Rows), 3*n/100)
		}
		nd.Set("enable_seqscan", sqltypes.NewBool(false))
		defer nd.Set("enable_seqscan", sqltypes.NewBool(true))
		sameRows(t, "index plan", q(t, nd, sqlText), want)
		plan := explainText(t, nd, sqlText)
		line := fmt.Sprintf("Index Scan using orders_odate on orders (odate >= %s and odate < %s)", d(8010), d(8013))
		if !strings.Contains(plan, line) {
			t.Errorf("plan lacks %q:\n%s", line, plan)
		}
	})

	// A correlation parameter and literals on the same column: the literal
	// range is intersected at plan time, the parameter joins it when the
	// inner scan opens — so an outer key outside [50, 60) opens an empty
	// scan and touches no item page at all.
	t.Run("parameter and literal", func(t *testing.T) {
		sqlText := "select ok from orders o where exists (select 1 from items i where i.ok = o.ok and i.ok >= 50 and i.ok < 60)"
		nd.Set("enable_seqscan", sqltypes.NewBool(true))
		want := q(t, nd, strings.ReplaceAll(sqlText, "i.ok >=", "(i.ok + 0) >="))
		if len(want.Rows) != 10 {
			t.Fatalf("reference found %d rows, want 10", len(want.Rows))
		}
		outer := touches(nd, func() { q(t, nd, "select ok from orders") })
		inner := pagesHolding(t, nd, "items", between(50, 59))
		var got *Result
		touched := touches(nd, func() { got = q(t, nd, sqlText) })
		sameRows(t, "correlated", got, want)
		// Each of the ten matching probes touches its own item page (again).
		if max := outer + 10*inner; touched > max {
			t.Errorf("touched %d pages, want at most %d (%d outer + ten probes)", touched, max, outer)
		}
		// The inner plan, bound against the outer row's layout: literal
		// bounds already intersected, the parameter carried beside them.
		orders, err := nd.db.Relation("orders")
		if err != nil {
			t.Fatal(err)
		}
		outerScope := &scope{tables: []tableBinding{{ref: "o", rel: orders}}, outputs: []colID{{t: 0, c: 0}}}
		var params []bexpr
		inner1 := mustSelect(t, "select 1 from items i where i.ok = o.ok and i.ok >= 50 and i.ok > 7 and i.ok < 60")
		root, _, err := nd.planSelectScoped(inner1, outerScope, &params)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		describe(root, 0, &lines)
		if plan, want := strings.Join(lines, "\n"), "Index Scan using items_pkey on items (ok = o.ok and ok >= 50 and ok < 60)"; !strings.Contains(plan, want) {
			t.Errorf("inner plan lacks %q:\n%s", want, plan)
		}
	})

	// Writes plan their target scan with the same rule.
	t.Run("DML", func(t *testing.T) {
		for _, c := range []struct {
			where           string
			affected, pages int64
		}{
			{"ok = 7 and ok >= 5 and ok < 9", 1, 1},
			{"ok = 7 and ok > 7", 0, 0},
			{"ok >= 5000 and ok = 8", 0, 0},
		} {
			var affected int64
			touched := touches(nd, func() {
				var err error
				if affected, err = nd.Exec("update orders set total = 1 where " + c.where); err != nil {
					t.Fatal(err)
				}
			})
			// An applied update touches the target page and the page its
			// new version lands on.
			if affected != c.affected || touched != c.pages*2 {
				t.Errorf("update where %s: %d rows, %d pages touched; want %d rows, %d pages", c.where, affected, touched, c.affected, c.pages*2)
			}
		}
	})
}

// TestBoundIntersectionProperty: random conjunct sets over the key
// column. The index plan must return the heap scan's rows in the heap
// scan's order and touch exactly the pages the qualifying keys live on.
func TestBoundIntersectionProperty(t *testing.T) {
	const n = 600
	nd := boundsDB(t, n)
	r := rand.New(rand.NewSource(20260419))
	lit := func() string {
		k := r.Intn(n+40) - 20
		if r.Intn(4) == 0 {
			return fmt.Sprintf("%d.5", k)
		}
		return fmt.Sprint(k)
	}
	ops := []string{"=", "<", "<=", ">", ">="}
	for i := 0; i < 300; i++ {
		var conj []string
		for j := 1 + r.Intn(4); j > 0; j-- {
			switch r.Intn(7) {
			case 0:
				conj = append(conj, fmt.Sprintf("ok between %s and %s", lit(), lit()))
			case 1, 2:
				conj = append(conj, fmt.Sprintf("%s %s ok", lit(), ops[r.Intn(len(ops))]))
			default:
				conj = append(conj, fmt.Sprintf("ok %s %s", ops[1+r.Intn(len(ops)-1)], lit()))
			}
		}
		sqlText := "select ok, cust from orders where " + strings.Join(conj, " and ")
		want := seqReference(t, nd, sqlText, "ok")
		keys := make(map[int64]bool, len(want.Rows))
		for _, row := range want.Rows {
			keys[row[0].I] = true
		}
		wantPages := pagesHolding(t, nd, "orders", func(k int64) bool { return keys[k] })

		nd.Set("enable_seqscan", sqltypes.NewBool(false))
		var got *Result
		touched := touches(nd, func() { got = q(t, nd, sqlText) })
		sameRows(t, sqlText, got, want)
		if touched != wantPages {
			t.Fatalf("%s: touched %d heap pages, the %d qualifying rows lie on %d", sqlText, touched, len(want.Rows), wantPages)
		}
	}
}
