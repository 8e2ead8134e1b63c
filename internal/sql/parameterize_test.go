package sql_test

import (
	"testing"
	"unicode/utf8"

	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// FuzzParameterize asserts Parameterize's contract over arbitrary input:
//
//  1. It never panics on a statement the parser accepts.
//  2. Lifting bare literals only (no fold), substituting the arguments
//     back gives the statement itself: the render of the round trip is
//     the render of the literal statement.
//  3. With the engine's fold, the substituted statement is a fixed point:
//     it parameterizes to the same shape and bit-identical arguments, and
//     the shape keeps no literal where one was lifted.
//
// The seed corpus in testdata/fuzz/FuzzParameterize holds the paper's
// templates, folded date and decimal arithmetic, literals on either side,
// IN lists, sub-queries and the positions nothing is lifted from.
func FuzzParameterize(f *testing.F) {
	for _, qn := range tpch.QueryNumbers {
		f.Add(tpch.MustQuery(qn))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 || !utf8.ValidString(src) {
			t.Skip()
		}
		sel, err := sql.ParseSelect(src)
		if err != nil {
			return
		}
		shape, args := parameterize(sel, nil)
		if got, want := sql.Substitute(shape, args).SQL(), sel.SQL(); got != want {
			t.Fatalf("round trip of bare literals\ninput: %q\nshape: %s\ngot:   %s\nwant:  %s", src, shape.SQL(), got, want)
		}
		shape, args = parameterize(sel, engine.FoldLiteral)
		back := sql.Substitute(shape, args)
		shape2, args2 := parameterize(back, engine.FoldLiteral)
		if shape2.SQL() != shape.SQL() || !sameValues(args, args2) {
			t.Fatalf("not a fixed point\ninput: %q\nshape: %s %v\nagain: %s %v", src, shape.SQL(), args, shape2.SQL(), args2)
		}
		if again, _ := parameterize(shape, engine.FoldLiteral); again.SQL() != shape.SQL() {
			t.Fatalf("a shape lifts again\nshape: %s\nagain: %s", shape.SQL(), again.SQL())
		}
	})
}

// parameterize is sql.Parameterize on a copy of sel.
func parameterize(sel *sql.SelectStmt, fold func(sql.Expr) (sqltypes.Value, bool)) (*sql.SelectStmt, []sqltypes.Value) {
	shape := sql.CloneSelect(sel)
	return shape, sql.Parameterize(shape, fold)
}

func sameValues(a, b []sqltypes.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || a[i].I != b[i].I || a[i].S != b[i].S ||
			(a[i].F != b[i].F && (a[i].F == a[i].F || b[i].F == b[i].F)) {
			return false
		}
	}
	return true
}

// TestParameterizeLiftsOnlyPredicateOperands pins what is lifted and
// what stays, one position at a time.
func TestParameterizeLiftsOnlyPredicateOperands(t *testing.T) {
	for _, c := range []struct{ in, shape string }{
		{"select a from t where b = 1 and 'x' < c", "select a from t where (b = $1 and $2 < c)"},
		{"select a from t where d <= date '1998-12-01' - interval '90' day", "select a from t where d <= $1"},
		{"select a from t where b between 0.06 - 0.01 and 0.06 + 0.01", "select a from t where b between $1 and $2"},
		{"select a from t where b in ('MAIL', 'SHIP') or not (c <> 3)", "select a from t where (b in ($1, $2) or not (c <> $3))"},
		{"select a from t where exists (select 1 from u where u.k = t.k and u.x > 5)", "select a from t where exists (select 1 from u where (u.k = t.k and u.x > $1))"},
		{"select a from t where b = (select max(c) from u where d < 2) and e > 7", "select a from t where (b = (select max(c) from u where d < $1) and e > $2)"},
		{"select a, 5 from t where 1 = 1 and b like 'PROMO%' and c is null and d < interval '1' day and e = null limit 10",
			"select a, 5 from t where ((((1 = 1 and b like 'PROMO%') and c is null) and d < interval '1' day) and e = null) limit 10"},
		{"select sum(case when b = 1 then 2 else 0 end) from t group by c having sum(d) > 3 order by 1", "select sum(case when b = 1 then 2 else 0 end) from t group by c having sum(d) > 3 order by 1"},
		{"select a from t where b = $1 and c = 2", "select a from t where (b = $1 and c = 2)"},
	} {
		sel, err := sql.ParseSelect(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		shape, args := parameterize(sel, engine.FoldLiteral)
		if shape.SQL() != c.shape {
			t.Errorf("%s\nshape %s\nwant  %s", c.in, shape.SQL(), c.shape)
		}
		if got := sql.Substitute(shape, args).SQL(); len(args) > 0 && got == shape.SQL() {
			t.Errorf("%s: substitution changed nothing", c.in)
		}
	}
}
