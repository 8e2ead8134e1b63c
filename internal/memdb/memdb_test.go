package memdb

import (
	"testing"

	"apuama/internal/sqltypes"
)

func TestLoadAndCompose(t *testing.T) {
	m := New()
	rows := []sqltypes.Row{
		{sqltypes.NewString("A"), sqltypes.NewInt(10), sqltypes.NewInt(2)},
		{sqltypes.NewString("B"), sqltypes.NewInt(20), sqltypes.NewInt(4)},
		{sqltypes.NewString("A"), sqltypes.NewInt(30), sqltypes.NewInt(6)},
	}
	name, err := m.LoadResult("partial", []string{"g0", "a0", "a1"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("select g0, sum(a0), sum(a1) from " + name + " group by g0 order by g0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	if res.Rows[0][1].AsFloat() != 40 || res.Rows[1][1].AsFloat() != 20 {
		t.Fatalf("sums: %v", res.Rows)
	}
}

func TestKindInferenceWidening(t *testing.T) {
	m := New()
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1)},
		{sqltypes.NewFloat(2.5)},
	}
	name, err := m.LoadResult("p", []string{"x"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("select sum(x) from " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 3.5 {
		t.Fatalf("widened sum: %v", res.Rows[0])
	}
}

func TestNullsAndDates(t *testing.T) {
	m := New()
	rows := []sqltypes.Row{
		{sqltypes.Null(), sqltypes.MustDate("1994-01-01")},
		{sqltypes.NewInt(5), sqltypes.MustDate("1995-01-01")},
	}
	name, err := m.LoadResult("p", []string{"a", "d"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("select count(a), max(d) from " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].DateString() != "1995-01-01" {
		t.Fatalf("%v", res.Rows[0])
	}
}

func TestAllNullColumn(t *testing.T) {
	m := New()
	rows := []sqltypes.Row{{sqltypes.Null()}, {sqltypes.Null()}}
	name, err := m.LoadResult("p", []string{"a"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("select count(*) from " + name)
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("%v %v", res, err)
	}
}

func TestEmptyResultSet(t *testing.T) {
	m := New()
	name, err := m.LoadResult("p", []string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query("select count(*), sum(a) from " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("%v", res.Rows[0])
	}
	if _, err := m.LoadResult("p", nil, nil); err == nil {
		t.Error("no columns should fail")
	}
}

func TestUniqueNames(t *testing.T) {
	m := New()
	n1, err := m.LoadResult("p", []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := m.LoadResult("p", []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == n2 {
		t.Error("names must be unique")
	}
}

// TestLoaderDropsWhatItCreates: a composition table lives as long as its
// query. A kind-widening rebuild drops the narrower table it replaces,
// and Drop removes the survivor; the database ends up empty.
func TestLoaderDropsWhatItCreates(t *testing.T) {
	m := New()
	ld := m.NewLoader("p", []string{"x"})
	if err := ld.Append([]sqltypes.Row{{sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := ld.Append([]sqltypes.Row{{sqltypes.NewFloat(2.5)}}); err != nil { // widens: rebuild
		t.Fatal(err)
	}
	name, err := ld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if live, created := m.Stats(); live != 1 || created != 2 {
		t.Fatalf("after a widening rebuild: %d live, %d created; want 1 and 2", live, created)
	}
	res, err := m.Query("select sum(x) from " + name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsFloat() != 3.5 {
		t.Fatalf("widened sum: %v", res.Rows[0])
	}
	ld.Drop()
	ld.Drop() // idempotent
	if live, _ := m.Stats(); live != 0 {
		t.Fatalf("%d tables survive Drop", live)
	}
	if _, err := m.Query("select sum(x) from " + name); err == nil {
		t.Fatal("a dropped table still answers queries")
	}
	// A loader that never received a row has nothing to drop.
	m.NewLoader("p", []string{"x"}).Drop()
}
