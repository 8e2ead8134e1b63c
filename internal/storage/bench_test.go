package storage

import (
	"math/rand"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
)

func BenchmarkBTreeInsert(b *testing.B) {
	tree := NewBTree()
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(intKey(r.Int63n(1<<30)), RowID{Page: int32(i)})
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	tree := NewBTree()
	for i := int64(0); i < 100_000; i++ {
		tree.Insert(intKey(i), RowID{Page: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%90) * 1000
		count := 0
		tree.AscendRange(intKey(lo), intKey(lo+1000), true, false, func(Entry) bool {
			count++
			return true
		})
		if count != 1000 {
			b.Fatalf("count %d", count)
		}
	}
}

// BenchmarkAscendRange is an SVP sub-query's index walk: lineitem-shaped
// composite keys (orderkey, linenumber), 120 k entries, a half-open
// orderkey-prefix range holding 4 k of them, RIDs collected as
// scanBounds.collect does.
func BenchmarkAscendRange(b *testing.B) {
	tree := NewBTree()
	for i := int64(0); i < 120_000; i++ {
		tree.Insert(sqltypes.Row{sqltypes.NewInt(i / 4), sqltypes.NewInt(i % 4)}, RowID{Page: int32(i / 64), Slot: int32(i % 64)})
	}
	rids := make([]RowID, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%29) * 1000
		rids = rids[:0]
		tree.AscendRange(intKey(lo), intKey(lo+1000), true, false, func(e Entry) bool {
			rids = append(rids, e.RID)
			return true
		})
		if len(rids) != 4000 {
			b.Fatalf("%d entries", len(rids))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4000, "ns/entry")
}

func BenchmarkBTreeDelete(b *testing.B) {
	tree := NewBTree()
	for i := int64(0); i < int64(b.N)+1; i++ {
		tree.Insert(intKey(i), RowID{Page: int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tree.Delete(intKey(int64(i)), RowID{Page: int32(i)}) {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkRelationInsert(b *testing.B) {
	rel := NewRelation("t", testSchemaB(), 8192)
	if _, err := rel.AddIndex("pk", []string{"id"}, true, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("payload"), sqltypes.NewFloat(1.5)}
		if _, err := rel.Insert(0, row); err != nil {
			b.Fatal(err)
		}
	}
}

func testSchemaB() Schema {
	return Schema{Cols: []Column{
		{Name: "id", Kind: sqltypes.KindInt},
		{Name: "name", Kind: sqltypes.KindString},
		{Name: "price", Kind: sqltypes.KindFloat},
	}}
}

func BenchmarkBufferPoolAccess(b *testing.B) {
	cfg := costmodel.TestConfig()
	pool := NewBufferPool(1024, costmodel.NewMeter(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Access(int64(i%2048), true) // 50% hit rate
	}
}

func BenchmarkHeapScan(b *testing.B) {
	rel := NewRelation("t", testSchemaB(), 8192)
	for i := 0; i < 50_000; i++ {
		row := sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x"), sqltypes.NewFloat(1)}
		if _, err := rel.Insert(0, row); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range rel.PageSnapshot() {
			for s := int32(0); s < int32(p.Count()); s++ {
				if p.Visible(s, 0) {
					n++
				}
			}
		}
		if n != 50_000 {
			b.Fatalf("n=%d", n)
		}
	}
}
