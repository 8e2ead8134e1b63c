package engine

import (
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
)

// nullDB builds a table with NULLs sprinkled in for three-valued-logic
// edge cases.
func nullDB(t *testing.T) *Node {
	t.Helper()
	db := NewDatabase(costmodel.TestConfig())
	nd := NewNode(0, db)
	if _, err := nd.Exec("create table t (id bigint, v bigint, s varchar, primary key (id))"); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("t")
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(10), sqltypes.NewString("a")},
		{sqltypes.NewInt(2), sqltypes.Null(), sqltypes.NewString("b")},
		{sqltypes.NewInt(3), sqltypes.NewInt(30), sqltypes.Null()},
		{sqltypes.NewInt(4), sqltypes.Null(), sqltypes.Null()},
		{sqltypes.NewInt(5), sqltypes.NewInt(10), sqltypes.NewString("a")},
	}
	for _, r := range rows {
		if _, err := rel.Insert(0, r); err != nil {
			t.Fatal(err)
		}
	}
	return nd
}

func TestNullComparisonSemantics(t *testing.T) {
	nd := nullDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"select id from t where v = 10", 2},
		{"select id from t where v <> 10", 1},      // NULLs drop out
		{"select id from t where not (v = 10)", 1}, // NOT NULL = NULL
		{"select id from t where v is null", 2},
		{"select id from t where v is not null", 3},
		{"select id from t where v = 10 or v is null", 4},
		{"select id from t where v in (10, 30)", 3},
		{"select id from t where v not in (10, 30)", 0}, // NULL never NOT IN
		{"select id from t where v between 5 and 15", 2},
		{"select id from t where s like 'a%'", 2},
	}
	for _, c := range cases {
		res, err := nd.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	nd := nullDB(t)
	res, err := nd.Query("select count(*), count(v), sum(v), avg(v), min(v), max(v) from t")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I != 5 || row[1].I != 3 {
		t.Errorf("counts: %v", row)
	}
	if row[2].AsFloat() != 50 || row[3].AsFloat() != 50.0/3 {
		t.Errorf("sum/avg: %v", row)
	}
	if row[4].AsFloat() != 10 || row[5].AsFloat() != 30 {
		t.Errorf("min/max: %v", row)
	}
}

func TestGroupByNullKey(t *testing.T) {
	nd := nullDB(t)
	// NULL group keys form one group (SQL GROUP BY semantics).
	res, err := nd.Query("select v, count(*) from t group by v order by v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	// NULLs sort last ascending, as PostgreSQL's default NULLS LAST has it.
	if res.Rows[0][0].I != 10 || res.Rows[1][0].I != 30 || !res.Rows[2][0].IsNull() || res.Rows[2][1].I != 2 {
		t.Errorf("null group not last: %v", res.Rows)
	}
}

func TestSortNullsAndDesc(t *testing.T) {
	nd := nullDB(t)
	res, err := nd.Query("select id, v from t order by v desc, id")
	if err != nil {
		t.Fatal(err)
	}
	// Desc: NULLs first (PostgreSQL's NULLS FIRST default for DESC), tied
	// and broken by id asc, then 30, 10, 10.
	if !res.Rows[0][1].IsNull() || !res.Rows[1][1].IsNull() || res.Rows[0][0].I != 2 || res.Rows[1][0].I != 4 {
		t.Errorf("nulls not first in desc: %v", res.Rows)
	}
	if res.Rows[2][1].AsInt() != 30 {
		t.Errorf("first value: %v", res.Rows[2])
	}
	// Tie on v=10 broken by id asc.
	if res.Rows[3][0].I != 1 || res.Rows[4][0].I != 5 {
		t.Errorf("tie break: %v", res.Rows)
	}
	// Ascending puts them last.
	res, err = nd.Query("select id, v from t order by v, id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].AsInt() != 10 || !res.Rows[3][1].IsNull() || !res.Rows[4][1].IsNull() || res.Rows[3][0].I != 2 {
		t.Errorf("nulls not last in asc: %v", res.Rows)
	}
}

func TestHavingOnScalarAggregate(t *testing.T) {
	nd := nullDB(t)
	res, err := nd.Query("select count(*) from t having count(*) > 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
		t.Fatalf("%v", res.Rows)
	}
	res, err = nd.Query("select count(*) from t having count(*) > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("failed having should drop the row: %v", res.Rows)
	}
}

func TestInSubqueryWithNulls(t *testing.T) {
	nd := nullDB(t)
	// The subquery set contains NULL: non-matching probes yield NULL,
	// not false, so only actual matches qualify.
	res, err := nd.Query("select id from t where v in (select v from t where id <> 1)")
	if err != nil {
		t.Fatal(err)
	}
	// v values of others: {NULL, 30, NULL, 10}: matches are v=10 (ids 1,5) and v=30 (id 3).
	if len(res.Rows) != 3 {
		t.Fatalf("in-sub with nulls: %v", res.Rows)
	}
}

func TestCaseWithoutElse(t *testing.T) {
	nd := nullDB(t)
	res, err := nd.Query("select id, case when v = 10 then 'ten' end from t order by id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].S != "ten" || !res.Rows[1][1].IsNull() {
		t.Errorf("%v", res.Rows)
	}
}

func TestUpdateSetNull(t *testing.T) {
	nd := nullDB(t)
	if _, err := nd.Exec("update t set v = null where id = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := nd.Query("select v from t where id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("%v", res.Rows)
	}
}

func TestDeleteEverythingThenInsert(t *testing.T) {
	nd := nullDB(t)
	if n, err := nd.Exec("delete from t"); err != nil || n != 5 {
		t.Fatalf("delete all: %d %v", n, err)
	}
	if res, _ := nd.Query("select count(*) from t"); res.Rows[0][0].I != 0 {
		t.Fatal("not empty")
	}
	if _, err := nd.Exec("insert into t (id, v, s) values (9, 9, 'z')"); err != nil {
		t.Fatal(err)
	}
	if res, _ := nd.Query("select count(*) from t"); res.Rows[0][0].I != 1 {
		t.Fatal("insert after truncate failed")
	}
}

func TestStringComparisonAndLikeEdge(t *testing.T) {
	nd := nullDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"select id from t where s >= 'b'", 1},
		{"select id from t where s like '%'", 3}, // NULLs excluded
		{"select id from t where s like '_'", 3},
		{"select id from t where s not like 'a%'", 1},
	}
	for _, c := range cases {
		res, err := nd.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d want %d", c.sql, len(res.Rows), c.want)
		}
	}
}
