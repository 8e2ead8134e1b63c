package engine_test

import (
	"sync"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// The two inner loops an SVP sub-query spends its time in, on TPC-H data
// and the host clock (zero-charge cost model, serial degree), so each has
// a number that does not need the 15 s end-to-end harness.

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
		res, err := nd.QueryStmtAt(sel, wm, engine.QueryOpts{Parallelism: 1})
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
// the figure join-tuple narrowing moves.
func BenchmarkHashJoinQ3(b *testing.B) {
	benchQuery(b, tpch.MustQuery(3))
}
