package engine_test

import (
	"sync"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// The inner loops an SVP sub-query spends its time in, on TPC-H data and
// the host clock (zero-charge cost model), so each has a
// number that does not need the 15 s end-to-end harness — and, beside
// them, BenchmarkRowLoopRoofline: the same work as a hand-written typed
// loop over the same stored rows, the ceiling of the row layout.

var (
	kernelOnce sync.Once
	kernelNode *engine.Node
)

// kernelBenchNode loads TPC-H SF 0.01 (≈ 60 k lineitem rows) once per
// test binary.
func kernelBenchNode(b *testing.B) *engine.Node {
	b.Helper()
	kernelOnce.Do(func() {
		db := engine.NewDatabase(costmodel.Config{})
		nd, err := tpch.Generator{SF: 0.01, Seed: 1}.Load(db)
		if err != nil {
			b.Fatal(err)
		}
		kernelNode = nd
	})
	if kernelNode == nil {
		b.Fatal("TPC-H load failed")
	}
	return kernelNode
}

func benchQuery(b *testing.B, text string) {
	nd := kernelBenchNode(b)
	sel, err := sql.ParseSelect(text)
	if err != nil {
		b.Fatal(err)
	}
	rel, err := nd.DB().Relation("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	wm := nd.Watermark()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nd.QueryStmtAt(sel, wm, engine.QueryOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.LiveRows()), "ns/lineitem-row")
}

// BenchmarkPredicateQ6 runs Q6's filter over every lineitem row with no
// aggregation above it: the per-row cost of predicate evaluation (≈ 2 % of
// rows survive, so emitting them is noise).
func BenchmarkPredicateQ6(b *testing.B) {
	benchQuery(b, `select l_orderkey from lineitem
		where l_shipdate >= date '1994-01-01'
		and l_shipdate < date '1994-01-01' + interval '1' year
		and l_discount between 0.06 - 0.01 and 0.06 + 0.01
		and l_quantity < 24`)
}

// BenchmarkHashJoinQ3 runs TPC-H Q3 (customer ⨝ orders ⨝ lineitem): the
// hash join's build, probe and per-match output tuples dominate; B/op is
// the figure join-tuple narrowing and reused join tuples move.
func BenchmarkHashJoinQ3(b *testing.B) {
	benchQuery(b, tpch.MustQuery(3))
}

// BenchmarkHashJoinQ5 runs TPC-H Q5, the six-way join: below its top join
// a four-deep chain of joins each builds the next one's table, so every
// tuple of that chain is kept for a whole probe — the case keepers' pooled
// arenas were built for.
func BenchmarkHashJoinQ5(b *testing.B) {
	benchQuery(b, tpch.MustQuery(5))
}

// BenchmarkFilterOverJoinQ21 runs TPC-H Q21: its EXISTS and NOT EXISTS
// residuals filter the top join's output, and the filter keeps each
// batch's survivors while it pulls more candidates — the filter-held case.
func BenchmarkFilterOverJoinQ21(b *testing.B) {
	benchQuery(b, tpch.MustQuery(21))
}

// BenchmarkExistsQ4 runs TPC-H Q4: a correlated EXISTS probed once per
// qualifying order, each probe an index scan opened on the order's key —
// what the sub-plan's reused parameters, context and bound rows save.
func BenchmarkExistsQ4(b *testing.B) {
	benchQuery(b, tpch.MustQuery(4))
}

// BenchmarkAggQ1 runs TPC-H Q1: one date conjunct that keeps ≈ 98 % of
// lineitem, eight aggregates (four of them arithmetic) over four groups.
func BenchmarkAggQ1(b *testing.B) {
	benchQuery(b, tpch.MustQuery(1))
}

// BenchmarkFilterKernel runs the scan predicates of Q6 and Q12 with a bare
// count(*) above them, so what is timed is the selection-vector kernels:
// Q6's date range, float BETWEEN and float bound; Q12's string IN list,
// two column-against-column comparisons and date range.
func BenchmarkFilterKernel(b *testing.B) {
	b.Run("Q6", func(b *testing.B) {
		benchQuery(b, `select count(*) from lineitem
			where l_shipdate >= date '1994-01-01'
			and l_shipdate < date '1994-01-01' + interval '1' year
			and l_discount between 0.06 - 0.01 and 0.06 + 0.01
			and l_quantity < 24`)
	})
	b.Run("Q12", func(b *testing.B) {
		benchQuery(b, `select count(*) from lineitem
			where l_shipmode in ('MAIL', 'SHIP')
			and l_commitdate < l_receiptdate
			and l_shipdate < l_commitdate
			and l_receiptdate >= date '1994-01-01'
			and l_receiptdate < date '1994-01-01' + interval '1' year`)
	})
}

var rooflineSink float64

// BenchmarkRowLoopRoofline is what the row layout allows: Q1's filter and
// aggregation, and Q6's date predicate, written by hand as typed loops
// over the heap pages' []sqltypes.Row — every kind check kept, no
// expression tree, no operator. The kernels above are judged against it
// (ROADMAP item 6 b asks for this ceiling before the layout question).
func BenchmarkRowLoopRoofline(b *testing.B) {
	nd := kernelBenchNode(b)
	rel, err := nd.DB().Relation("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	col := func(name string) int {
		c := rel.Schema.ColIndex(name)
		if c < 0 {
			b.Fatalf("no column %s", name)
		}
		return c
	}
	qty, price, disc, tax := col("l_quantity"), col("l_extendedprice"), col("l_discount"), col("l_tax")
	flag, status, ship := col("l_returnflag"), col("l_linestatus"), col("l_shipdate")
	pages := rel.PageSnapshot()
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.LiveRows()), "ns/lineitem-row")
	}
	b.Run("Q1", func(b *testing.B) {
		cutoff := sqltypes.MustDate("1998-09-02").I
		type group struct {
			flag, status                      string
			n                                 int64
			qty, price, discPrice, charge, ds float64
		}
		for i := 0; i < b.N; i++ {
			var groups []group
			for _, p := range pages {
				for s := int32(0); s < int32(p.Count()); s++ {
					row := p.Row(s)
					if d := &row[ship]; d.K != sqltypes.KindDate || d.I > cutoff {
						continue
					}
					f, st := &row[flag], &row[status]
					q, pr, di, tx := &row[qty], &row[price], &row[disc], &row[tax]
					if f.K != sqltypes.KindString || st.K != sqltypes.KindString || q.K != sqltypes.KindFloat ||
						pr.K != sqltypes.KindFloat || di.K != sqltypes.KindFloat || tx.K != sqltypes.KindFloat {
						b.Fatal("unexpected kind")
					}
					g := -1
					for j := range groups {
						if groups[j].flag == f.S && groups[j].status == st.S {
							g = j
							break
						}
					}
					if g < 0 {
						groups = append(groups, group{flag: f.S, status: st.S})
						g = len(groups) - 1
					}
					gr := &groups[g]
					dp := pr.F * (1 - di.F)
					gr.n++
					gr.qty += q.F
					gr.price += pr.F
					gr.discPrice += dp
					gr.charge += dp * (1 + tx.F)
					gr.ds += di.F
				}
			}
			for _, g := range groups {
				rooflineSink += g.charge
			}
		}
		perRow(b)
	})
	b.Run("Q6date", func(b *testing.B) {
		lo, hi := sqltypes.MustDate("1994-01-01").I, sqltypes.MustDate("1995-01-01").I
		for i := 0; i < b.N; i++ {
			n := 0
			for _, p := range pages {
				for s := int32(0); s < int32(p.Count()); s++ {
					if d := &p.Row(s)[ship]; d.K == sqltypes.KindDate && d.I >= lo && d.I < hi {
						n++
					}
				}
			}
			rooflineSink += float64(n)
		}
		perRow(b)
	})
}
