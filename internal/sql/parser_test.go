package sql

import (
	"strings"
	"testing"

	"apuama/internal/sqltypes"
)

func parse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := parse(t, "select a, b as bee from t where a > 3 order by bee desc limit 10;")
	s, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if len(s.Items) != 2 || s.Items[1].Alias != "bee" {
		t.Errorf("items: %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Name != "t" {
		t.Errorf("from: %+v", s.From)
	}
	if s.Where == nil || len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Errorf("where/order: %+v", s)
	}
	if s.Limit == nil || *s.Limit != 10 {
		t.Errorf("limit: %v", s.Limit)
	}
}

func TestParseStarAndDistinct(t *testing.T) {
	s := parse(t, "select distinct * from t").(*SelectStmt)
	if !s.Distinct || !s.Items[0].Star {
		t.Errorf("%+v", s)
	}
}

func TestParseAliases(t *testing.T) {
	s := parse(t, "select l1.x from lineitem l1, lineitem l2 where l1.x = l2.x").(*SelectStmt)
	if s.From[0].RefName() != "l1" || s.From[1].RefName() != "l2" {
		t.Errorf("aliases: %+v", s.From)
	}
	if s.From[0].Name != "lineitem" {
		t.Errorf("name: %+v", s.From[0])
	}
	cr := s.Items[0].Expr.(*ColumnRef)
	if cr.Table != "l1" || cr.Name != "x" {
		t.Errorf("column ref: %+v", cr)
	}
}

func TestParseDateAndInterval(t *testing.T) {
	s := parse(t, "select 1 from t where d <= date '1998-12-01' - interval '90' day").(*SelectStmt)
	cmp := s.Where.(*CompareExpr)
	bin := cmp.R.(*BinaryExpr)
	if bin.Op != '-' {
		t.Fatalf("op %c", bin.Op)
	}
	if lit := bin.L.(*Literal); lit.Val.K != sqltypes.KindDate {
		t.Errorf("left not date: %v", lit.Val)
	}
	if lit := bin.R.(*Literal); lit.Val.K != sqltypes.KindInterval || lit.Val.I != 90 || lit.Val.S != "day" {
		t.Errorf("right not interval: %v", lit.Val)
	}
}

func TestParsePredicates(t *testing.T) {
	s := parse(t, `select 1 from t where a between 1 and 5 and b not in ('x','y')
		and c like 'PROMO%' and d is not null and not (e = 1 or f < 2)`).(*SelectStmt)
	if s.Where == nil {
		t.Fatal("nil where")
	}
	// Must round-trip.
	if _, err := Parse(s.SQL()); err != nil {
		t.Fatalf("round trip: %v\n%s", err, s.SQL())
	}
}

func TestParseExists(t *testing.T) {
	s := parse(t, `select 1 from orders where exists (select 1 from lineitem where l_orderkey = o_orderkey)
		and not exists (select 1 from lineitem where l_orderkey = 0)`).(*SelectStmt)
	and := s.Where.(*AndExpr)
	if ex, ok := and.L.(*ExistsExpr); !ok || ex.Not {
		t.Errorf("left: %T", and.L)
	}
	if ex, ok := and.R.(*ExistsExpr); !ok || !ex.Not {
		t.Errorf("right: %T %+v", and.R, and.R)
	}
}

func TestParseCase(t *testing.T) {
	s := parse(t, `select sum(case when a = 1 then b else 0 end) from t`).(*SelectStmt)
	f := s.Items[0].Expr.(*FuncExpr)
	if !f.IsAggregate() {
		t.Error("sum should be aggregate")
	}
	c := f.Args[0].(*CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
}

func TestParseCountStar(t *testing.T) {
	s := parse(t, "select count(*), count(distinct x) from t").(*SelectStmt)
	if f := s.Items[0].Expr.(*FuncExpr); !f.Star {
		t.Error("count(*) star flag")
	}
	if f := s.Items[1].Expr.(*FuncExpr); !f.Distinct {
		t.Error("count(distinct)")
	}
}

func TestParseScalarSubquery(t *testing.T) {
	s := parse(t, "select 1 from t where a > (select avg(a) from t)").(*SelectStmt)
	cmp := s.Where.(*CompareExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Errorf("want subquery, got %T", cmp.R)
	}
}

func TestParseInsert(t *testing.T) {
	st := parse(t, "insert into t (a, b) values (1, 'x'), (2, 'y')").(*InsertStmt)
	if st.Table != "t" || len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Errorf("%+v", st)
	}
}

func TestParseDelete(t *testing.T) {
	st := parse(t, "delete from t where a = 1").(*DeleteStmt)
	if st.Table != "t" || st.Where == nil {
		t.Errorf("%+v", st)
	}
	st = parse(t, "delete from t").(*DeleteStmt)
	if st.Where != nil {
		t.Errorf("%+v", st)
	}
}

func TestParseUpdate(t *testing.T) {
	st := parse(t, "update t set a = a + 1, b = 'z' where c = 2").(*UpdateStmt)
	if len(st.Set) != 2 || st.Set[0].Column != "a" || st.Where == nil {
		t.Errorf("%+v", st)
	}
}

func TestParseSet(t *testing.T) {
	cases := []struct {
		src  string
		want sqltypes.Value
	}{
		{"set enable_seqscan = off", sqltypes.NewBool(false)},
		{"set enable_seqscan to on", sqltypes.NewBool(true)},
		{"set work_mem = 1024", sqltypes.NewInt(1024)},
		{"set search_path = 'public'", sqltypes.NewString("public")},
		{"set enable_seqscan = true", sqltypes.NewBool(true)},
	}
	for _, c := range cases {
		st := parse(t, c.src).(*SetStmt)
		if st.Value != c.want {
			t.Errorf("%s: got %+v want %+v", c.src, st.Value, c.want)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st := parse(t, `create table orders (
		o_orderkey bigint, o_custkey bigint, o_totalprice decimal(15,2),
		o_orderdate date, o_comment varchar(79), primary key (o_orderkey))`).(*CreateTableStmt)
	if st.Name != "orders" || len(st.Columns) != 5 {
		t.Fatalf("%+v", st)
	}
	if st.Columns[2].Type != sqltypes.KindFloat || st.Columns[3].Type != sqltypes.KindDate {
		t.Errorf("types: %+v", st.Columns)
	}
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "o_orderkey" {
		t.Errorf("pk: %+v", st.PrimaryKey)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := parse(t, "create clustered index li_pk on lineitem (l_orderkey, l_linenumber)").(*CreateIndexStmt)
	if !st.Clustered || st.Table != "lineitem" || len(st.Columns) != 2 {
		t.Errorf("%+v", st)
	}
	st2 := parse(t, "create index idx on t (a)").(*CreateIndexStmt)
	if st2.Clustered {
		t.Error("should not be clustered")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate",
		"select",
		"select from t",
		"select a from",
		"select a from t where",
		"select a from t limit x",
		"insert into t values",
		"create table t (a unknowntype)",
		"select 'unterminated from t",
		"select a ~ b from t",
		"select case end from t",
		"set x",
		"create clustered table t (a bigint)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseAllScript(t *testing.T) {
	sts, err := ParseAll("select 1 from t; delete from t; set x = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d statements", len(sts))
	}
}

func TestComments(t *testing.T) {
	s := parse(t, "select a -- trailing comment\nfrom t -- another\n").(*SelectStmt)
	if len(s.From) != 1 {
		t.Errorf("%+v", s)
	}
}

func TestReferencedTables(t *testing.T) {
	s := parse(t, `select 1 from orders, customer where exists
		(select 1 from lineitem where l_orderkey = o_orderkey)`).(*SelectStmt)
	got := ReferencedTables(s)
	want := []string{"orders", "customer", "lineitem"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := parse(t, "select sum(a) from t where b > 1 group by c order by c").(*SelectStmt)
	c := CloneSelect(s)
	// Mutate the clone's where; original must be untouched.
	c.Where = &AndExpr{L: c.Where, R: &CompareExpr{Op: "=", L: &ColumnRef{Name: "z"}, R: &Literal{Val: sqltypes.NewInt(1)}}}
	c.Items[0].Alias = "changed"
	if s.Items[0].Alias == "changed" {
		t.Error("clone aliases original items")
	}
	if _, ok := s.Where.(*CompareExpr); !ok {
		t.Errorf("original where mutated: %T", s.Where)
	}
}

// Round-trip property: parse → render → parse → render must be a fixpoint.
func TestRoundTrip(t *testing.T) {
	queries := []string{
		"select a from t",
		"select distinct a, b + 1 as c from t u where a between 1 and 2",
		"select sum(case when a = 'x' then b * (1 - c) else 0.0 end) as rev from t group by d having sum(b) > 5 order by rev desc limit 3",
		"select 1 from t where a in (1, 2, 3) and b not like 'z%'",
		"select 1 from t where exists (select 1 from u where u.x = t.x) and not exists (select 1 from v)",
		"select avg(a) from t where d < date '1995-03-15' + interval '3' month",
		"select a from t where a >= $1 and a < $12",
		"insert into t (a) values (1), (null)",
		"delete from t where a is not null",
		"update t set a = -b where c <> 4",
		"set enable_seqscan = off",
		"create table t (a bigint, b double, c varchar, d date, e boolean, primary key (a, b))",
		"create clustered index i on t (a)",
	}
	for _, q := range queries {
		st1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		r1 := st1.SQL()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q: %v", r1, err)
		}
		if r2 := st2.SQL(); r1 != r2 {
			t.Errorf("not a fixpoint:\n%s\n%s", r1, r2)
		}
	}
}

func TestParsePlaceholder(t *testing.T) {
	s := parse(t, "select a from t where a >= $1 and a < $12").(*SelectStmt)
	and := s.Where.(*AndExpr)
	lo, hi := and.L.(*CompareExpr).R, and.R.(*CompareExpr).R
	if p, ok := lo.(*Placeholder); !ok || p.N != 1 {
		t.Errorf("lower bound %#v, want $1", lo)
	}
	if p, ok := hi.(*Placeholder); !ok || p.N != 12 {
		t.Errorf("upper bound %#v, want $12", hi)
	}
	for _, bad := range []string{"select a from t where a = $0", "select a from t where a = $"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseExtract(t *testing.T) {
	s := parse(t, "select extract(year from l_shipdate) as y from lineitem group by extract(year from l_shipdate)").(*SelectStmt)
	ex, ok := s.Items[0].Expr.(*ExtractExpr)
	if !ok || ex.Field != "year" {
		t.Fatalf("items: %+v", s.Items[0].Expr)
	}
	if _, ok := s.GroupBy[0].(*ExtractExpr); !ok {
		t.Fatalf("group by: %T", s.GroupBy[0])
	}
	// Round trip.
	r1 := s.SQL()
	s2, err := Parse(r1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, r1)
	}
	if s2.SQL() != r1 {
		t.Errorf("not a fixpoint:\n%s\n%s", r1, s2.SQL())
	}
	// Clone independence.
	c := CloneSelect(s)
	c.Items[0].Expr.(*ExtractExpr).Field = "month"
	if s.Items[0].Expr.(*ExtractExpr).Field != "year" {
		t.Error("clone aliases original")
	}
	for _, bad := range []string{
		"select extract(century from d) from t",
		"select extract(year, d) from t",
		"select extract(year from) from t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestParseExplain(t *testing.T) {
	st := parse(t, "explain select a from t where a > 1").(*ExplainStmt)
	if st.Query == nil || len(st.Query.From) != 1 {
		t.Fatalf("%+v", st)
	}
	if st.SQL() != "explain select a from t where a > 1" {
		t.Errorf("render: %s", st.SQL())
	}
	if _, err := Parse("explain delete from t"); err == nil {
		t.Error("explain of non-select should fail")
	}
}
