package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
)

func testSchema() Schema {
	return Schema{Cols: []Column{
		{Name: "id", Kind: sqltypes.KindInt},
		{Name: "name", Kind: sqltypes.KindString},
		{Name: "price", Kind: sqltypes.KindFloat},
	}}
}

func TestSchemaColIndex(t *testing.T) {
	s := testSchema()
	if s.ColIndex("name") != 1 || s.ColIndex("nope") != -1 {
		t.Errorf("ColIndex wrong")
	}
}

func fillRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := NewRelation("items", testSchema(), 512)
	for i := 0; i < n; i++ {
		row := sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("item-%04d", i)), sqltypes.NewFloat(float64(i) * 1.5)}
		if _, err := r.Insert(0, row); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRelationInsertFetch(t *testing.T) {
	r := fillRelation(t, 100)
	if r.LiveRows() != 100 {
		t.Fatalf("live rows %d", r.LiveRows())
	}
	if r.NumPages() < 2 {
		t.Fatalf("expected multiple pages with 512B page size, got %d", r.NumPages())
	}
	// Base rows (xmin 0) visible at snapshot 0.
	pages := r.PageSnapshot()
	total := 0
	for _, p := range pages {
		for s := int32(0); s < int32(p.Count()); s++ {
			if !p.Visible(s, 0) {
				t.Fatal("base row invisible at snapshot 0")
			}
			total++
		}
	}
	if total != 100 {
		t.Fatalf("scanned %d rows", total)
	}
}

func TestRelationSchemaMismatch(t *testing.T) {
	r := NewRelation("t", testSchema(), 512)
	if _, err := r.Insert(0, sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("expected error for short row")
	}
}

// TestTruncateKeepsPagesNotRows: a truncated relation lists no page and
// references no row it held, its statistics start over, and the rows
// inserted next land on the pages it kept.
func TestTruncateKeepsPagesNotRows(t *testing.T) {
	r := NewRelation("t", testSchema(), 256)
	for i := range 20 {
		if _, err := r.Insert(0, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x"), sqltypes.NewFloat(1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	pages := append([]*Page(nil), r.PageSnapshot()...)
	if len(pages) < 2 {
		t.Fatalf("%d pages; the test wants several", len(pages))
	}
	r.Truncate()
	if n := r.NumPages(); n != 0 || r.LiveRows() != 0 {
		t.Fatalf("after Truncate: %d pages, %d live rows", n, r.LiveRows())
	}
	if lo, hi := r.ColRange(0); !lo.IsNull() || !hi.IsNull() {
		t.Fatalf("after Truncate the range of id is [%v, %v]", lo, hi)
	}
	for _, p := range pages {
		for _, row := range p.rows {
			if row != nil {
				t.Fatalf("page %d still references a row", p.ID)
			}
		}
	}
	rid, err := r.Insert(0, sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewString("y"), sqltypes.NewFloat(2)})
	if err != nil {
		t.Fatal(err)
	}
	if p := r.PageOf(rid); !slices.Contains(pages, p) || r.Fetch(rid)[0].I != 7 {
		t.Fatalf("the next row went to page %d, not a kept one", p.ID)
	}
	if lo, _ := r.ColRange(0); lo.I != 7 || r.LiveRows() != 1 {
		t.Fatalf("statistics after a new row: min %v, %d live rows", lo, r.LiveRows())
	}
}

func TestMVCCVisibility(t *testing.T) {
	r := fillRelation(t, 10)
	// Write 5 inserts a row; write 7 deletes row 0.
	rid, err := r.Insert(5, sqltypes.Row{sqltypes.NewInt(100), sqltypes.NewString("new"), sqltypes.NewFloat(1)})
	if err != nil {
		t.Fatal(err)
	}
	if r.VisibleAt(rid, 4) {
		t.Error("row from write 5 visible at snapshot 4")
	}
	if !r.VisibleAt(rid, 5) {
		t.Error("row from write 5 invisible at snapshot 5")
	}
	victim := RowID{Page: 0, Slot: 0}
	if !r.MarkDeleted(victim, 7) {
		t.Fatal("delete failed")
	}
	if !r.VisibleAt(victim, 6) {
		t.Error("deleted-at-7 row invisible at snapshot 6")
	}
	if r.VisibleAt(victim, 7) {
		t.Error("deleted-at-7 row visible at snapshot 7")
	}
	// Idempotent replay: second kill reports false.
	if r.MarkDeleted(victim, 7) {
		t.Error("second delete should report false")
	}
	if r.LiveRows() != 10 { // 10 + 1 insert - 1 delete
		t.Errorf("live rows %d", r.LiveRows())
	}
}

func TestRelationIndexes(t *testing.T) {
	r := fillRelation(t, 50)
	ix, err := r.AddIndex("items_pk", []string{"id"}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 50 {
		t.Fatalf("backfill: %d entries", ix.Tree.Len())
	}
	if _, err := r.AddIndex("items_pk", []string{"id"}, true, false); err == nil {
		t.Error("duplicate index name should fail")
	}
	if _, err := r.AddIndex("other_clustered", []string{"price"}, false, true); err == nil {
		t.Error("second clustered index should fail")
	}
	if _, err := r.AddIndex("bad", []string{"nope"}, false, false); err == nil {
		t.Error("unknown column should fail")
	}
	// New inserts maintain the index.
	if _, err := r.Insert(1, sqltypes.Row{sqltypes.NewInt(999), sqltypes.NewString("x"), sqltypes.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 51 {
		t.Fatalf("index not maintained: %d", ix.Tree.Len())
	}
	if got := r.ClusteredIndex(); got != ix {
		t.Error("ClusteredIndex")
	}
	if got := r.IndexOn(0); got != ix {
		t.Error("IndexOn(0)")
	}
	if got := r.IndexOn(2); got != nil {
		t.Error("IndexOn(2) should be nil")
	}
}

func TestColRange(t *testing.T) {
	r := fillRelation(t, 10)
	lo, hi := r.ColRange(0)
	if lo.I != 0 || hi.I != 9 {
		t.Errorf("range [%v, %v]", lo, hi)
	}
	empty := NewRelation("e", testSchema(), 512)
	lo, hi = empty.ColRange(0)
	if !lo.IsNull() || !hi.IsNull() {
		t.Error("empty relation should have NULL range")
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	r := NewRelation("t", testSchema(), 512)
	if _, err := r.AddIndex("pk", []string{"id"}, true, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = r.Insert(int64(i+1), sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("w"), sqltypes.NewFloat(0)})
		}
	}()
	// Concurrent scans at snapshot 0 must see nothing (all writes > 0).
	for k := 0; k < 100; k++ {
		for _, p := range r.PageSnapshot() {
			for s := int32(0); s < int32(p.Count()); s++ {
				if p.Visible(s, 0) {
					t.Error("snapshot 0 sees concurrent insert")
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestBufferPoolLRU(t *testing.T) {
	cfg := costmodel.TestConfig()
	cfg.CachePages = 3
	m := costmodel.NewMeter(cfg)
	b := NewBufferPool(3, m)
	b.Access(1, true)
	b.Access(2, true)
	b.Access(3, true)
	hits, misses := b.Stats()
	if hits != 0 || misses != 3 {
		t.Fatalf("cold: hits=%d misses=%d", hits, misses)
	}
	b.Access(1, true) // hit, 1 becomes MRU
	b.Access(4, true) // evicts 2
	if b.Contains(2) {
		t.Error("2 should be evicted")
	}
	if !b.Contains(1) || !b.Contains(3) || !b.Contains(4) {
		t.Error("unexpected residency")
	}
	hits, misses = b.Stats()
	if hits != 1 || misses != 4 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
	if b.Len() != 3 {
		t.Errorf("len=%d", b.Len())
	}
	b.ResetStats()
	if h, mi := b.Stats(); h != 0 || mi != 0 {
		t.Error("ResetStats")
	}
}

func TestBufferPoolChargesMeter(t *testing.T) {
	cfg := costmodel.TestConfig()
	m := costmodel.NewMeter(cfg)
	b := NewBufferPool(10, m)
	b.Access(1, true)  // seq miss
	b.Access(2, false) // rand miss
	b.Access(1, true)  // hit: free
	want := cfg.SeqPageRead + cfg.RandPageRead
	if m.Virtual() != want {
		t.Errorf("meter = %v, want %v", m.Virtual(), want)
	}
}

func TestBufferPoolMinCapacity(t *testing.T) {
	b := NewBufferPool(0, costmodel.NewMeter(costmodel.TestConfig()))
	b.Access(1, true)
	b.Access(2, true)
	if b.Len() != 1 {
		t.Errorf("capacity clamp failed: %d", b.Len())
	}
}

func TestBufferPoolConcurrency(t *testing.T) {
	b := NewBufferPool(64, costmodel.NewMeter(costmodel.TestConfig()))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				b.Access(int64(i*7+int(seed))%128, i%2 == 0)
			}
		}(int64(g))
	}
	wg.Wait()
	hits, misses := b.Stats()
	if hits+misses != 8*5000 {
		t.Errorf("lost accesses: %d", hits+misses)
	}
	if b.Len() > 64 {
		t.Errorf("over capacity: %d", b.Len())
	}
}

func TestMeterAccounting(t *testing.T) {
	cfg := costmodel.TestConfig()
	m := costmodel.NewMeter(cfg)
	m.Charge(100)
	m.Charge(50)
	m.Charge(0)
	m.Charge(-5)
	if m.Virtual() != 150 {
		t.Errorf("virtual = %v", m.Virtual())
	}
	m.MaybeFlush() // no-op without RealSleep
	m.Flush()
	if m.Virtual() != 150 {
		t.Errorf("flush changed accounting: %v", m.Virtual())
	}
	m.Reset()
	if m.Virtual() != 0 {
		t.Error("reset failed")
	}
}

func TestMeterRealSleep(t *testing.T) {
	cfg := costmodel.TestConfig()
	cfg.RealSleep = true
	m := costmodel.NewMeter(cfg)
	m.Charge(300 * 1000) // 300µs > threshold
	m.MaybeFlush()
	if m.Virtual() == 0 {
		t.Error("virtual should still accumulate in sleep mode")
	}
}
