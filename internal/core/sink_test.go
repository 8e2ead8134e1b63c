package core

import (
	"context"
	"testing"

	"apuama/internal/sqltypes"
)

// feedSink hands rows to the sink as one batch of the given attempt.
func feedSink(t *testing.T, sink *memdbSink, idx int, attempt int64, rows []sqltypes.Row) {
	t.Helper()
	b := sqltypes.GetBatch()
	b.Rows = append(b.Rows, rows...)
	if err := sink.observe(idx, attempt, b); err != nil {
		t.Fatal(err)
	}
}

func keyRows(keys ...int64) []sqltypes.Row {
	rows := make([]sqltypes.Row, len(keys))
	for i, k := range keys {
		rows[i] = sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewFloat(float64(k) / 2)}
	}
	return rows
}

// TestSinkComposesOncePerQuery drives the default sink by hand through
// the gather's awkward histories. Each must produce exactly the winners'
// rows in partition order, create at most one composition table, and
// leave none behind — for the identity shortcut (no table at all), a
// composition that needs memdb (ORDER BY) and a re-aggregation.
func TestSinkComposesOncePerQuery(t *testing.T) {
	shapes := []struct {
		name, text string
		tables     int64 // composition tables one query may create
	}{
		{"identity", "select o_orderkey, o_totalprice from orders", 0},
		{"ordered", "select o_orderkey, o_totalprice from orders order by o_orderkey", 1},
		{"limit", "select o_orderkey, o_totalprice from orders limit 4", 0},
	}
	histories := []struct {
		name string
		n    int
		run  func(t *testing.T, sink *memdbSink)
		want []int64
	}{
		{"out-of-order commits", 3, func(t *testing.T, sink *memdbSink) {
			feedSink(t, sink, 2, 1, keyRows(7, 8))
			sink.commit(2, 1, nil)
			feedSink(t, sink, 0, 2, keyRows(1))
			feedSink(t, sink, 1, 3, keyRows(4, 5))
			feedSink(t, sink, 0, 2, keyRows(2))
			sink.commit(1, 3, nil)
			sink.commit(0, 2, nil)
		}, []int64{1, 2, 4, 5, 7, 8}},
		{"mid-stream abort at the first partition", 2, func(t *testing.T, sink *memdbSink) {
			feedSink(t, sink, 0, 1, keyRows(1))
			feedSink(t, sink, 1, 2, keyRows(6))
			sink.abort(0, 1, nil)
			sink.commit(1, 2, nil)
			feedSink(t, sink, 0, 3, keyRows(1, 2))
			sink.commit(0, 3, nil)
		}, []int64{1, 2, 6}},
		{"all partitions empty", 3, func(t *testing.T, sink *memdbSink) {
			for p := 0; p < 3; p++ {
				sink.commit(p, int64(p+1), nil)
			}
		}, nil},
	}
	for _, sh := range shapes {
		rw, err := PlanSVP(mustSel(t, sh.text), TPCHCatalog())
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range histories {
			t.Run(sh.name+"/"+h.name, func(t *testing.T) {
				s := buildStack(t, 1, DefaultOptions())
				sink := s.eng.newComposeSink(shapeOfRewrite(rw, 0), h.n, nil)
				h.run(t, sink)
				res, err := sink.finish(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want := h.want
				if rw.Compose.Limit != nil && int64(len(want)) > *rw.Compose.Limit {
					want = want[:*rw.Compose.Limit]
				}
				if len(res.Cols) != 2 || res.Cols[0] != "o_orderkey" || res.Cols[1] != "o_totalprice" {
					t.Fatalf("columns %v", res.Cols)
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%d rows, want %d: %v", len(res.Rows), len(want), res.Rows)
				}
				for i, k := range want {
					if res.Rows[i][0].I != k || res.Rows[i][1].F != float64(k)/2 {
						t.Fatalf("row %d = %v, want key %d", i, res.Rows[i], k)
					}
				}
				if live, created := s.eng.mem.Stats(); live != 0 || created > sh.tables {
					t.Fatalf("memdb: %d live, %d created; want 0 live, at most %d created", live, created, sh.tables)
				}
			})
		}
	}
}

// TestSinkLimitEarlyStop: when a settled LIMIT ends the gather with a gap
// in the committed partitions, composition takes the committed prefix
// only — partitions past the gap are not the leading rows.
func TestSinkLimitEarlyStop(t *testing.T) {
	s := buildStack(t, 1, DefaultOptions())
	rw, err := PlanSVP(mustSel(t, "select o_orderkey, o_totalprice from orders limit 3"), TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	sink := s.eng.newComposeSink(shapeOfRewrite(rw, 0), 4, nil)
	feedSink(t, sink, 3, 1, keyRows(30, 31, 32))
	sink.commit(3, 1, nil)
	feedSink(t, sink, 0, 2, keyRows(1, 2))
	sink.commit(0, 2, nil)
	feedSink(t, sink, 2, 3, keyRows(20)) // still streaming when the gather settles
	feedSink(t, sink, 1, 4, keyRows(10, 11))
	sink.commit(1, 4, nil)
	res, err := sink.finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 10}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d: %v", len(res.Rows), len(want), res.Rows)
	}
	for i, k := range want {
		if res.Rows[i][0].I != k {
			t.Fatalf("row %d = %v, want key %d", i, res.Rows[i], k)
		}
	}
	if live, created := s.eng.mem.Stats(); live != 0 || created != 0 {
		t.Fatalf("memdb: %d live, %d created; an unordered LIMIT composes without a table", live, created)
	}
}

// TestSinkReaggregates: the same histories' point for an aggregate
// rewrite — an aborted attempt's partial must not be summed in.
func TestSinkReaggregates(t *testing.T) {
	s := buildStack(t, 1, DefaultOptions())
	rw, err := PlanSVP(mustSel(t, "select count(*), sum(o_totalprice) from orders"), TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	partial := func(n int64, sum float64) []sqltypes.Row {
		return []sqltypes.Row{{sqltypes.NewInt(n), sqltypes.NewFloat(sum)}}
	}
	sink := s.eng.newComposeSink(shapeOfRewrite(rw, 0), 2, nil)
	feedSink(t, sink, 1, 1, partial(5, 2.5))
	sink.commit(1, 1, nil)
	feedSink(t, sink, 0, 2, partial(3, 1.5)) // streams, then its node dies
	sink.abort(0, 2, nil)
	feedSink(t, sink, 0, 3, partial(3, 1.5)) // the requeued attempt
	sink.commit(0, 3, nil)
	res, err := sink.finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 8 || res.Rows[0][1].AsFloat() != 4 {
		t.Fatalf("composed %v, want [8 4]", res.Rows)
	}
	if live, created := s.eng.mem.Stats(); live != 0 || created != 1 {
		t.Fatalf("memdb: %d live, %d created; want 0 live, 1 created", live, created)
	}
}
