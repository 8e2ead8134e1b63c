package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"apuama/internal/sqltypes"
)

// mixedRelation is an empty relation with a clustered int key and three
// secondary indexes whose entries arrive out of order: an int column with
// duplicates and NULLs, a string column (sorted without an inline key) and
// a composite (float, int) key.
func mixedRelation(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation("mixed", Schema{Cols: []Column{
		{Name: "id", Kind: sqltypes.KindInt},
		{Name: "grp", Kind: sqltypes.KindInt},
		{Name: "name", Kind: sqltypes.KindString},
		{Name: "price", Kind: sqltypes.KindFloat},
	}}, 512)
	for _, ix := range []struct {
		name      string
		cols      []string
		clustered bool
	}{
		{"pk", []string{"id"}, true},
		{"by_grp", []string{"grp"}, false},
		{"by_name", []string{"name"}, false},
		{"by_price_grp", []string{"price", "grp"}, false},
	} {
		if _, err := r.AddIndex(ix.name, ix.cols, ix.clustered, ix.clustered); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// mixedRows is n rows in id order from first, the other columns drawn
// from seed, NULLs included.
func mixedRows(first, n int, seed int64) []sqltypes.Row {
	r := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		grp, price := sqltypes.NewInt(int64(r.Intn(40))), sqltypes.NewFloat(float64(r.Intn(300))/4)
		if r.Intn(10) == 0 {
			grp = sqltypes.Value{}
		}
		if r.Intn(15) == 0 {
			price = sqltypes.Value{}
		}
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(first + i)), grp, sqltypes.NewString(fmt.Sprintf("n%03d", r.Intn(500))), price}
	}
	return rows
}

// sameRelation fails unless a and b hold the same heap — every page's
// rows, xmin and xmax in the same slots, with page IDs in the same (rising)
// order — the same live-row count and column ranges, and indexes whose
// trees are valid and ascend through the same entries.
func sameRelation(t *testing.T, a, b *Relation) {
	t.Helper()
	pa, pb := a.PageSnapshot(), b.PageSnapshot()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d pages against %d", a.Name, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Count() != pb[i].Count() {
			t.Fatalf("%s page %d: %d slots against %d", a.Name, i, pa[i].Count(), pb[i].Count())
		}
		if i > 0 && (pa[i].ID <= pa[i-1].ID || pb[i].ID <= pb[i-1].ID) {
			t.Fatalf("%s page %d: page IDs out of order", a.Name, i)
		}
		for s := int32(0); s < int32(pa[i].Count()); s++ {
			ra, rb := pa[i].Row(s), pb[i].Row(s)
			if !slices.Equal(ra, rb) || pa[i].xmin[s] != pb[i].xmin[s] ||
				atomic.LoadInt64(&pa[i].xmax[s]) != atomic.LoadInt64(&pb[i].xmax[s]) {
				t.Fatalf("%s page %d slot %d: %v (xmin %d xmax %d) against %v (xmin %d xmax %d)", a.Name, i, s,
					ra, pa[i].xmin[s], pa[i].xmax[s], rb, pb[i].xmin[s], pb[i].xmax[s])
			}
		}
	}
	if a.LiveRows() != b.LiveRows() {
		t.Fatalf("%s: %d live rows against %d", a.Name, a.LiveRows(), b.LiveRows())
	}
	for c := range a.Schema.Cols {
		alo, ahi := a.ColRange(c)
		blo, bhi := b.ColRange(c)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s column %d: range [%v, %v] against [%v, %v]", a.Name, c, alo, ahi, blo, bhi)
		}
	}
	ia, ib := a.Indexes(), b.Indexes()
	if len(ia) != len(ib) {
		t.Fatalf("%s: %d indexes against %d", a.Name, len(ia), len(ib))
	}
	for i := range ia {
		for _, ix := range []*Index{ia[i], ib[i]} {
			if err := ix.Tree.validate(); err != nil {
				t.Fatalf("%s.%s: %v", a.Name, ix.Name, err)
			}
		}
		ea, eb := entriesOf(ia[i].Tree), entriesOf(ib[i].Tree)
		if !slices.EqualFunc(ea, eb, func(x, y Entry) bool { return x.RID == y.RID && slices.Equal(x.Key, y.Key) }) {
			t.Fatalf("%s.%s: the trees ascend through different entries", a.Name, ia[i].Name)
		}
	}
}

func entriesOf(t *BTree) []Entry {
	var out []Entry
	t.Ascend(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// TestAppendMatchesInsert: a bulk append into an empty relation leaves
// exactly what one Insert per row leaves, at every size from none to many
// pages.
func TestAppendMatchesInsert(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300, 5000} {
		rows := mixedRows(0, n, int64(n))
		bulk, one := mixedRelation(t), mixedRelation(t)
		if err := bulk.Append(4, rows); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if _, err := one.Insert(4, row); err != nil {
				t.Fatal(err)
			}
		}
		sameRelation(t, bulk, one)
		if bulk.WriteEpoch() != 4 {
			t.Fatalf("%d rows: write epoch %d, want 4", n, bulk.WriteEpoch())
		}
	}
}

// TestAppendToPopulatedRelation: appended rows go on fresh pages, and each
// index is rebuilt over its old entries and the new ones.
func TestAppendToPopulatedRelation(t *testing.T) {
	first, second := mixedRows(0, 700, 1), mixedRows(700, 900, 2)
	bulk, one := mixedRelation(t), mixedRelation(t)
	for _, row := range first {
		for _, r := range []*Relation{bulk, one} {
			if _, err := r.Insert(1, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	pages := bulk.NumPages()
	if err := bulk.Append(2, second); err != nil {
		t.Fatal(err)
	}
	for _, row := range second {
		if _, err := one.Insert(2, row); err != nil {
			t.Fatal(err)
		}
	}
	if p := bulk.PageSnapshot()[pages]; !slices.Equal(p.Row(0), second[0]) {
		t.Fatalf("the append's first row is not on a fresh page: %v", p.Row(0))
	}
	if bulk.LiveRows() != one.LiveRows() {
		t.Fatalf("%d live rows, want %d", bulk.LiveRows(), one.LiveRows())
	}
	for c := range bulk.Schema.Cols {
		blo, bhi := bulk.ColRange(c)
		olo, ohi := one.ColRange(c)
		if blo != olo || bhi != ohi {
			t.Fatalf("column %d: range [%v, %v], want [%v, %v]", c, blo, bhi, olo, ohi)
		}
	}
	for i, ix := range bulk.Indexes() {
		if err := ix.Tree.validate(); err != nil {
			t.Fatalf("%s: %v", ix.Name, err)
		}
		got, want := entriesOf(ix.Tree), entriesOf(one.Indexes()[i].Tree)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", ix.Name, len(got), len(want))
		}
		for k, e := range got {
			// RIDs differ where the layouts do; keys ascend alike, and each
			// entry's key is its row's.
			if compareKeys(e.Key, want[k].Key) != 0 || !slices.Equal(e.Key, ix.KeyFor(bulk.Fetch(e.RID))) {
				t.Fatalf("%s entry %d: key %v, want %v", ix.Name, k, e.Key, want[k].Key)
			}
			if k > 0 && compareEntries(got[k-1], e) > 0 {
				t.Fatalf("%s entry %d: out of order", ix.Name, k)
			}
		}
	}
}

// TestAppendRejectsAWrongRow: a row of the wrong width fails the whole
// append, which then leaves the relation as it was.
func TestAppendRejectsAWrongRow(t *testing.T) {
	r := mixedRelation(t)
	rows := mixedRows(0, 50, 1)
	rows[30] = rows[30][:2]
	if err := r.Append(1, rows); err == nil {
		t.Fatal("a row of 2 values was appended to a 4-column relation")
	}
	if r.NumPages() != 0 || r.LiveRows() != 0 || r.Indexes()[0].Tree.Len() != 0 {
		t.Fatalf("a failed append left %d pages, %d live rows, %d index entries", r.NumPages(), r.LiveRows(), r.Indexes()[0].Tree.Len())
	}
	if lo, hi := r.ColRange(0); !lo.IsNull() || !hi.IsNull() {
		t.Fatalf("a failed append widened the key range to [%v, %v]", lo, hi)
	}
}

// TestAppendReadersSeeNoneOrAll runs heap scans and index scans beside a
// bulk append: each sees none of its rows or all of them, and every index
// entry it sees resolves to a visible row.
func TestAppendReadersSeeNoneOrAll(t *testing.T) {
	const n = 20000
	r := mixedRelation(t)
	rows := mixedRows(0, n, 5)
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	check := func() error {
		heap := 0
		for _, p := range r.PageSnapshot() {
			heap += p.Count()
		}
		if heap != 0 && heap != n {
			return fmt.Errorf("a heap scan saw %d of %d rows", heap, n)
		}
		for _, ix := range r.Indexes() {
			seen, resolved := 0, 0
			ix.Tree.Ascend(func(e Entry) bool {
				seen++
				return true
			})
			for _, e := range entriesOf(ix.Tree) {
				if r.VisibleAt(e.RID, 0) {
					resolved++
				}
			}
			if (seen != 0 && seen != n) || (resolved != 0 && resolved != n) {
				return fmt.Errorf("%s: an index scan saw %d entries and resolved %d, of %d", ix.Name, seen, resolved, n)
			}
		}
		return nil
	}
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	err := r.Append(0, rows)
	done.Store(true)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		t.Error(err)
	}
	if err := check(); err != nil || r.LiveRows() != n {
		t.Fatalf("after the append: %v, %d live rows", err, r.LiveRows())
	}
}

// TestAddIndexAndVacuumBuildLikeInserts: an index declared over a
// populated relation, and every index after a vacuum, ascend through the
// entries one Insert per row gives a tree.
func TestAddIndexAndVacuumBuildLikeInserts(t *testing.T) {
	rows := mixedRows(0, 3000, 9)
	r := NewRelation("late", mixedRelation(t).Schema, 512)
	for _, row := range rows {
		if _, err := r.Insert(1, row); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := r.AddIndex("by_name", []string{"name", "id"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := func() *BTree {
		ref := NewBTree()
		for pi, p := range r.PageSnapshot() {
			for s := int32(0); s < int32(p.Count()); s++ {
				ref.Insert(ix.KeyFor(p.Row(s)), RowID{Page: int32(pi), Slot: s})
			}
		}
		return ref
	}
	check := func(when string) {
		t.Helper()
		if err := ix.Tree.validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got, ref := entriesOf(ix.Tree), entriesOf(want()); !slices.EqualFunc(got, ref, func(x, y Entry) bool {
			return x.RID == y.RID && slices.Equal(x.Key, y.Key)
		}) {
			t.Fatalf("%s: the tree differs from one built by inserts", when)
		}
	}
	check("after AddIndex")
	killed := int64(0)
	for pi, p := range r.PageSnapshot() {
		for s := int32(0); s < int32(p.Count()); s += 3 {
			if r.MarkDeleted(RowID{Page: int32(pi), Slot: s}, 2) {
				killed++
			}
		}
	}
	if removed := r.Vacuum(2); removed != killed {
		t.Fatalf("vacuum removed %d rows, want %d", removed, killed)
	}
	check("after Vacuum")
}
