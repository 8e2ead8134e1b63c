package memdb

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"apuama/internal/engine"
	"apuama/internal/sql"
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

// TestTableKeepsNoRowsAndNoName: a kept composition table is in the
// catalog only while its composition is planned, and Truncate leaves it
// referencing no row it held; loaded again, it composes the new rows with
// the same plan, and a result composed before the truncation is intact.
func TestTableKeepsNoRowsAndNoName(t *testing.T) {
	m := New()
	compose, err := sql.ParseSelect("select g, sum(x) as s from p group by g order by g")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []sqltypes.Kind{sqltypes.KindString, sqltypes.KindFloat}
	tb, err := m.Prepare(compose, []string{"g", "x"}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if live, created := m.Stats(); live != 0 || created != 1 {
		t.Fatalf("after Prepare: %d live, %d created; want 0 and 1", live, created)
	}
	load := func(rows ...sqltypes.Row) *engine.Result {
		t.Helper()
		if err := tb.Load(rows, InferKinds(2, rows)); err != nil {
			t.Fatal(err)
		}
		res, err := tb.Compose()
		if err != nil {
			t.Fatal(err)
		}
		tb.Truncate()
		return res
	}
	first := load(sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewInt(1)}, sqltypes.Row{sqltypes.NewString("a"), sqltypes.NewFloat(2.5)})
	for _, p := range tb.rel.PageSnapshot() {
		t.Fatalf("a truncated table still lists page %d", p.ID)
	}
	second := load(sqltypes.Row{sqltypes.NewString("b"), sqltypes.NewFloat(4)})
	if got := fmt.Sprint(first.Rows, second.Rows); got != "[[a 3.5]] [[b 4]]" {
		t.Fatalf("compositions %s", got)
	}
	if live, created := m.Stats(); live != 0 || created != 1 {
		t.Fatalf("after two loads: %d live, %d created; want 0 and 1", live, created)
	}
}

// TestComposeSmallTableBytes pins the heap bytes one composition of a
// 4-row partial table allocates on a kept table — load, the prepared
// composition query, truncate — the shape of Q1's. The table's page and
// the plan are reused, so what is left is the composition's own work:
// ≈ 1.3 KB (with a table created, planned and dropped per composition,
// as before kept tables, ≈ 17 KB). Under the race detector, whose
// sync.Pool drops buffers, it reads ≈ 15 KB and is held to the bound of
// the table-per-composition design. Rows that need no widening are stored
// as they are, not copied. The least of three rounds is compared.
func TestComposeSmallTableBytes(t *testing.T) {
	maxBytes := uint64(4 << 10)
	if raceEnabled {
		maxBytes = 32 << 10
	}
	m := New()
	var rows []sqltypes.Row
	for i := range 4 {
		rows = append(rows, sqltypes.Row{sqltypes.NewString("A"), sqltypes.NewString(string(rune('F' + i))),
			sqltypes.NewFloat(1.5), sqltypes.NewFloat(2.5), sqltypes.NewInt(int64(i + 1)), sqltypes.NewFloat(3.5)})
	}
	compose, err := sql.ParseSelect("select g0, g1, sum(a0), sum(a1) / sum(a2), sum(a3) from p group by g0, g1 order by g0, g1")
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"g0", "g1", "a0", "a1", "a2", "a3"}
	kinds := InferKinds(len(cols), rows)
	tb, err := m.Prepare(compose, cols, kinds)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := tb.Load(rows, kinds); err != nil {
			t.Fatal(err)
		}
		if res, err := tb.Compose(); err != nil || len(res.Rows) != 4 {
			t.Fatalf("compose: %v rows, %v", res, err)
		}
		tb.Truncate()
	}
	run()
	const runs = 100
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%d B per composition", least)
	if least > maxBytes {
		t.Errorf("a 4-row composition allocates %d B, want at most %d", least, maxBytes)
	}
}
