package engine

import (
	"strings"
	"testing"

	"apuama/internal/sqltypes"
)

// TestBinderFoldsConstants pins what the binder folds at bind time and
// what it must leave for the row: arithmetic over literals becomes a
// literal, a failing one stays and errors only when a row reaches it, and
// runtime values (columns, correlation parameters) never fold.
func TestBinderFoldsConstants(t *testing.T) {
	db, nd := newTestDB(t, 5, 1)
	orders, _ := db.Relation("orders")
	items, _ := db.Relation("items")
	layoutOf := func(n int) []colID {
		out := make([]colID, n)
		for c := range out {
			out[c] = colID{c: c}
		}
		return out
	}
	outer := &scope{tables: []tableBinding{{ref: "orders", rel: orders}}, outputs: layoutOf(len(orders.Schema.Cols))}
	var params []bexpr
	inner := &scope{tables: []tableBinding{{ref: "items", rel: items}}, outputs: layoutOf(len(items.Schema.Cols)), outer: outer, params: &params}
	b := &binder{node: nd}
	bind := func(text string, sc *scope) bexpr {
		t.Helper()
		e, err := b.bind(mustSelect(t, "select "+text+" from items").Items[0].Expr, sc)
		if err != nil {
			t.Fatalf("bind %q: %v", text, err)
		}
		return e
	}

	diff, _ := sqltypes.Sub(sqltypes.NewFloat(0.06), sqltypes.NewFloat(0.01)) // what a row would have computed
	for text, want := range map[string]sqltypes.Value{
		"date '1994-01-01' + interval '1' year": sqltypes.MustDate("1995-01-01"),
		"0.06 - 0.01":                           diff,
		"-(2 + 3) * 4":                          sqltypes.NewInt(-20),
		"1 + null":                              sqltypes.Null(),
	} {
		lit, ok := bind(text, inner).(*litExpr)
		if !ok {
			t.Errorf("%q bound to %s, want a literal", text, exprString(bind(text, inner)))
		} else if !sameValue(lit.v, want) {
			t.Errorf("%q folded to %v, want %v", text, lit.v, want)
		}
	}

	for text, want := range map[string]string{
		"1/0":                            "binExpr", // fails: stays, to fail per row
		"-'a'":                           "negExpr", // likewise
		"price + 1":                      "binExpr", // column
		"-qty":                           "negExpr", // column
		"orders.ok + 1":                  "binExpr", // correlation parameter
		"-orders.total":                  "negExpr", // correlation parameter
		"1 + 1 = 2":                      "cmpExpr", // comparisons are not folded, their operands are
		"case when 1 = 1 then 2 end + 1": "binExpr",
	} {
		if got := exprString(bind(text, inner)); got != want {
			t.Errorf("%q bound to %s, want %s", text, got, want)
		}
	}
	if cmp := bind("1 + 1 = 2", inner).(*cmpExpr); exprString(cmp.l) != "litExpr" {
		t.Errorf("comparison operand bound to %s, want a literal", exprString(cmp.l))
	}
	if len(params) != 2 {
		t.Fatalf("%d correlation parameters collected, want 2", len(params))
	}
	if _, err := bind("1/0", inner).eval(&evalCtx{}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("unfolded 1/0 evaluated to error %v", err)
	}

	// The error surfaces when a row is evaluated, and only then: no row
	// reaches the condition when the scan's own filter rejects them all.
	if res, err := nd.Query("select ok from orders where ok < 0 and 1/0 = 1"); err != nil || len(res.Rows) != 0 {
		t.Errorf("no row evaluated: got %v rows, error %v", res, err)
	}
	if _, err := nd.Query("select ok from orders where 1/0 = 1"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("rows evaluated: error %v, want division by zero", err)
	}

	// literalValue is the same folder, asked for the value.
	if v, ok := literalValue(mustSelect(t, "select date '1994-01-01' + interval '3' month from items").Items[0].Expr); !ok || !sameValue(v, sqltypes.MustDate("1994-04-01")) {
		t.Errorf("literalValue folded to %v, %v", v, ok)
	}
	for _, text := range []string{"1/0", "ok + 1", "1 + (select max(ok) from orders)"} {
		if v, ok := literalValue(mustSelect(t, "select "+text+" from items").Items[0].Expr); ok {
			t.Errorf("literalValue(%q) = %v, want not a literal", text, v)
		}
	}
}
