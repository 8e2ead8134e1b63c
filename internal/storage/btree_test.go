package storage

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"apuama/internal/sqltypes"
)

func intKey(v int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(v)} }

func collect(t *BTree, lo, hi sqltypes.Row, loIncl, hiIncl bool) []int64 {
	var out []int64
	t.AscendRange(lo, hi, loIncl, hiIncl, func(e Entry) bool {
		out = append(out, e.Key[0].I)
		return true
	})
	return out
}

func TestBTreeInsertAscend(t *testing.T) {
	tree := NewBTree()
	perm := rand.New(rand.NewSource(7)).Perm(1000)
	for _, v := range perm {
		tree.Insert(intKey(int64(v)), RowID{Page: int32(v)})
	}
	if tree.Len() != 1000 {
		t.Fatalf("len = %d", tree.Len())
	}
	got := collect(tree, nil, nil, true, true)
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("position %d: got %d", i, v)
		}
	}
	if err := tree.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRange(t *testing.T) {
	tree := NewBTree()
	for v := int64(0); v < 100; v++ {
		tree.Insert(intKey(v), RowID{Page: int32(v)})
	}
	cases := []struct {
		lo, hi         int64
		loIncl, hiIncl bool
		first, last    int64
		n              int
	}{
		{10, 20, true, true, 10, 20, 11},
		{10, 20, true, false, 10, 19, 10},
		{10, 20, false, true, 11, 20, 10},
		{10, 20, false, false, 11, 19, 9},
		{0, 0, true, true, 0, 0, 1},
		{99, 200, true, true, 99, 99, 1},
	}
	for _, c := range cases {
		got := collect(tree, intKey(c.lo), intKey(c.hi), c.loIncl, c.hiIncl)
		if len(got) != c.n || got[0] != c.first || got[len(got)-1] != c.last {
			t.Errorf("range [%d,%d] incl(%v,%v): got %v", c.lo, c.hi, c.loIncl, c.hiIncl, got)
		}
	}
	if got := collect(tree, intKey(200), intKey(300), true, true); len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
	if got := collect(tree, nil, intKey(2), true, true); len(got) != 3 {
		t.Errorf("open lo: %v", got)
	}
	if got := collect(tree, intKey(97), nil, true, true); len(got) != 3 {
		t.Errorf("open hi: %v", got)
	}
}

func TestBTreeEarlyStop(t *testing.T) {
	tree := NewBTree()
	for v := int64(0); v < 100; v++ {
		tree.Insert(intKey(v), RowID{})
	}
	count := 0
	tree.Ascend(func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	tree := NewBTree()
	for i := int32(0); i < 50; i++ {
		tree.Insert(intKey(7), RowID{Page: i})
	}
	got := collect(tree, intKey(7), intKey(7), true, true)
	if len(got) != 50 {
		t.Fatalf("duplicates: %d", len(got))
	}
	// Delete one specific duplicate.
	if !tree.Delete(intKey(7), RowID{Page: 25}) {
		t.Fatal("delete duplicate failed")
	}
	if tree.Len() != 49 {
		t.Fatalf("len after delete = %d", tree.Len())
	}
	if tree.Delete(intKey(7), RowID{Page: 25}) {
		t.Fatal("double delete should fail")
	}
}

func TestBTreeCompositePrefix(t *testing.T) {
	tree := NewBTree()
	// Composite keys (k, sub) like lineitem's (l_orderkey, l_linenumber).
	for k := int64(0); k < 20; k++ {
		for sub := int64(0); sub < 4; sub++ {
			tree.Insert(sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(sub)}, RowID{Page: int32(k), Slot: int32(sub)})
		}
	}
	// Prefix probe: all entries with k in [5, 7].
	got := collect(tree, intKey(5), intKey(7), true, true)
	if len(got) != 12 {
		t.Fatalf("prefix range: %d entries: %v", len(got), got)
	}
	for _, v := range got {
		if v < 5 || v > 7 {
			t.Fatalf("out of range key %d", v)
		}
	}
	// Exclusive prefix bounds: k in (5, 7).
	got = collect(tree, intKey(5), intKey(7), false, false)
	if len(got) != 4 {
		t.Fatalf("exclusive prefix range: %v", got)
	}
}

// Property test: a random interleaving of inserts and deletes matches a
// reference map, and invariants hold throughout.
func TestBTreeRandomOpsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tree := NewBTree()
	ref := map[int64]bool{} // key -> present (RID == key here)
	for step := 0; step < 20000; step++ {
		k := int64(r.Intn(2000))
		if r.Intn(3) == 0 {
			want := ref[k]
			got := tree.Delete(intKey(k), RowID{Page: int32(k)})
			if got != want {
				t.Fatalf("step %d: delete(%d) = %v, want %v", step, k, got, want)
			}
			delete(ref, k)
		} else if !ref[k] {
			tree.Insert(intKey(k), RowID{Page: int32(k)})
			ref[k] = true
		}
		if step%2500 == 0 {
			if err := tree.validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tree.validate(); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := collect(tree, nil, nil, true, true)
	if len(got) != len(want) {
		t.Fatalf("size mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("content mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// Property: deleting every inserted key in random order empties the tree
// while invariants hold.
func TestBTreeDrainProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tree := NewBTree()
	const n = 5000
	for _, v := range r.Perm(n) {
		tree.Insert(intKey(int64(v)), RowID{Page: int32(v)})
	}
	for i, v := range r.Perm(n) {
		if !tree.Delete(intKey(int64(v)), RowID{Page: int32(v)}) {
			t.Fatalf("delete %d failed", v)
		}
		if i%1000 == 0 {
			if err := tree.validate(); err != nil {
				t.Fatalf("after %d deletes: %v", i, err)
			}
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("tree not empty: %d", tree.Len())
	}
	if got := collect(tree, nil, nil, true, true); len(got) != 0 {
		t.Fatalf("ascend over empty tree: %v", got)
	}
}

// sortedEntries is n entries in compareEntries order: keys 0, 0, 1, 1, …
// (two RIDs per key), as a build receives them.
func sortedEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: intKey(int64(i / 2)), RID: RowID{Page: int32(i / 2), Slot: int32(i % 2)}}
	}
	return es
}

// height is the tree's leaf depth.
func (t *BTree) height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// TestBulkTreeValidAtEverySize builds trees bottom-up from 0 entries up to
// three levels — every size to 700, then every 37th to 5 000, and each
// height boundary (64, 4 224 and 274 624 entries, the most one, two and
// three levels hold) with its neighbours — and checks each is a valid
// B-tree of the least height holding its entries, with exactly those
// entries in order.
func TestBulkTreeValidAtEverySize(t *testing.T) {
	var sizes []int
	for n := 0; n <= 5000; n++ {
		if n <= 700 || n%37 == 0 {
			sizes = append(sizes, n)
		}
	}
	sizes = append(sizes, 4223, 4224, 4225, 274623, 274624, 274625)
	heights := map[int]int{0: 1, 64: 1, 65: 2, 4224: 2, 4225: 3, 274624: 3, 274625: 4}
	for _, n := range sizes {
		es := sortedEntries(n)
		tree := bulkTree(es)
		if err := tree.validate(); err != nil {
			t.Fatalf("%d entries: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("%d entries: Len %d", n, tree.Len())
		}
		if want, ok := heights[n]; ok && tree.height() != want {
			t.Fatalf("%d entries: height %d, want %d", n, tree.height(), want)
		}
		if n > 5000 || n%97 == 0 {
			i := 0
			tree.Ascend(func(e Entry) bool {
				if compareEntries(e, es[i]) != 0 {
					t.Fatalf("%d entries: position %d holds %v, want %v", n, i, e.RID, es[i].RID)
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("%d entries: Ascend visited %d", n, i)
			}
		}
	}
}

// TestBulkTreeTakesWrites churns bulk-built trees — full leaves split on
// the first insert into them, leaves at the least size merge on the first
// delete — and checks every step against a tree built one Insert at a
// time.
func TestBulkTreeTakesWrites(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 64, 65, 97, 4224, 4225, 20000} {
		es := sortedEntries(n)
		bulk, ref := bulkTree(es), NewBTree()
		for _, e := range es {
			ref.Insert(e.Key, e.RID)
		}
		live := append([]Entry(nil), es...)
		for step := 0; step < 3000; step++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(live))
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !bulk.Delete(e.Key, e.RID) || !ref.Delete(e.Key, e.RID) {
					t.Fatalf("%d entries, step %d: delete %v failed", n, step, e)
				}
			} else {
				e := Entry{Key: intKey(int64(r.Intn(n/2 + 10))), RID: RowID{Page: int32(1_000_000 + step)}}
				bulk.Insert(e.Key, e.RID)
				ref.Insert(e.Key, e.RID)
				live = append(live, e)
			}
			if step%500 == 0 || step == 2999 {
				if err := bulk.validate(); err != nil {
					t.Fatalf("%d entries, step %d: %v", n, step, err)
				}
				if got, want := ascendRIDs(bulk), ascendRIDs(ref); !slices.Equal(got, want) {
					t.Fatalf("%d entries, step %d: bulk tree and insert-built tree differ", n, step)
				}
			}
		}
	}
}

func ascendRIDs(t *BTree) []RowID {
	var out []RowID
	t.Ascend(func(e Entry) bool {
		out = append(out, e.RID)
		return true
	})
	return out
}
