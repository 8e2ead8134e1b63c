// Package storage implements the physical layer of a node engine: heap
// pages with MVCC row headers, B-tree indexes (clustered and secondary)
// and an LRU buffer pool charged against the simulated cost model.
//
// Base data is loaded once into shared, append-only heap segments; every
// cluster node sees the same heap but owns its buffer pool and snapshot
// watermark (see DESIGN.md, "Substitutions").
package storage

import (
	"sync"

	"apuama/internal/sqltypes"
)

// degree is the minimum number of keys per non-root B-tree node
// (maximum is 2*degree). 32 keeps nodes around a cache line multiple.
const degree = 32

// Entry is one index entry: a (possibly composite) key and the heap
// position of the indexed row.
type Entry struct {
	Key sqltypes.Row
	RID RowID
}

// compareKeys orders composite keys column-wise. A shorter key that
// matches the prefix of a longer key compares equal at prefix length and
// then shorter-first; range scans exploit the prefix behaviour.
func compareKeys(a, b sqltypes.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := sqltypes.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// comparePrefix orders a full key against a (possibly shorter) probe,
// comparing only the probe's columns. Used for range bounds so that a
// probe (5) matches all composite keys (5, *).
func comparePrefix(key sqltypes.Row, probe sqltypes.Row) int {
	for i := range probe {
		if i >= len(key) {
			return -1
		}
		if c := sqltypes.Compare(key[i], probe[i]); c != 0 {
			return c
		}
	}
	return 0
}

// compareEntries gives entries a total order: key order then RID order,
// so duplicate keys are permitted and Delete can address one entry.
func compareEntries(a, b Entry) int {
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.RID.Page != b.RID.Page:
		if a.RID.Page < b.RID.Page {
			return -1
		}
		return 1
	case a.RID.Slot != b.RID.Slot:
		if a.RID.Slot < b.RID.Slot {
			return -1
		}
		return 1
	}
	return 0
}

type btreeNode struct {
	entries  []Entry
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// BTree is an in-memory B-tree supporting duplicate keys, guarded by a
// single RWMutex (index operations are short; heap fetches happen outside
// the lock).
type BTree struct {
	mu   sync.RWMutex
	root *btreeNode
	size int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{}}
}

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert adds an entry (duplicates of key are fine; the exact same
// (key, rid) pair may be inserted twice and will then exist twice).
func (t *BTree) Insert(key sqltypes.Row, rid RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{Key: key, RID: rid}
	if len(t.root.entries) == 2*degree {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, e)
	t.size++
}

func (t *BTree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := degree
	up := child.entries[mid]
	right := &btreeNode{
		entries: append([]Entry(nil), child.entries[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]
	parent.entries = append(parent.entries, Entry{})
	copy(parent.entries[i+1:], parent.entries[i:])
	parent.entries[i] = up
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *BTree) insertNonFull(n *btreeNode, e Entry) {
	i := lowerBound(n.entries, e)
	if n.leaf() {
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		return
	}
	if len(n.children[i].entries) == 2*degree {
		t.splitChild(n, i)
		if compareEntries(e, n.entries[i]) > 0 {
			i++
		}
	}
	t.insertNonFull(n.children[i], e)
}

// lowerBound returns the first position whose entry is >= e.
func lowerBound(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes one entry exactly matching (key, rid). It reports
// whether an entry was removed.
func (t *BTree) Delete(key sqltypes.Row, rid RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{Key: key, RID: rid}
	ok := t.delete(t.root, e)
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if ok {
		t.size--
	}
	return ok
}

// delete removes e from the subtree rooted at n (CLRS B-tree deletion).
// Invariant: except for the root, n always has >= degree entries when
// delete is called on it, so removing one entry cannot underflow it.
func (t *BTree) delete(n *btreeNode, e Entry) bool {
	i := lowerBound(n.entries, e)
	found := i < len(n.entries) && compareEntries(n.entries[i], e) == 0
	if n.leaf() {
		if !found {
			return false
		}
		n.entries = append(n.entries[:i], n.entries[i+1:]...)
		return true
	}
	if found {
		left, right := n.children[i], n.children[i+1]
		switch {
		case len(left.entries) >= degree:
			pred := maxEntry(left)
			n.entries[i] = pred
			return t.delete(left, pred)
		case len(right.entries) >= degree:
			succ := minEntry(right)
			n.entries[i] = succ
			return t.delete(right, succ)
		default:
			// Merge e and right into left, then delete from left.
			t.mergeChildren(n, i)
			return t.delete(left, e)
		}
	}
	// Descend into children[i], topping it up first if needed. Borrowing
	// or merging shifts entries, so simply retry at this node afterwards.
	if len(n.children[i].entries) < degree {
		t.fixChild(n, i)
		return t.delete(n, e)
	}
	return t.delete(n.children[i], e)
}

func maxEntry(n *btreeNode) Entry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

func minEntry(n *btreeNode) Entry {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.entries[0]
}

// fixChild guarantees children[i] gets at least degree entries by
// borrowing from a sibling or merging with one.
func (t *BTree) fixChild(n *btreeNode, i int) {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].entries) >= degree {
		left := n.children[i-1]
		child.entries = append([]Entry{n.entries[i-1]}, child.entries...)
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !child.leaf() {
			child.children = append([]*btreeNode{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].entries) >= degree {
		right := n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		right.entries = append([]Entry(nil), right.entries[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append([]*btreeNode(nil), right.children[1:]...)
		}
		return
	}
	// Merge with a sibling.
	if i > 0 {
		t.mergeChildren(n, i-1)
	} else {
		t.mergeChildren(n, i)
	}
}

// mergeChildren merges children[i] and children[i+1] around separator i.
func (t *BTree) mergeChildren(n *btreeNode, i int) {
	left, right := n.children[i], n.children[i+1]
	left.entries = append(left.entries, n.entries[i])
	left.entries = append(left.entries, right.entries...)
	left.children = append(left.children, right.children...)
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange walks entries whose key-prefix lies within [lo, hi] in key
// order. Nil bounds are open; loIncl/hiIncl select strict or inclusive
// comparison. Probes may be key prefixes (fewer columns than stored
// keys). The callback returning false stops the walk.
//
// The walk holds the tree's read lock; callbacks must not call back into
// the tree. Heap access happens after collecting RIDs, outside the lock.
func (t *BTree) AscendRange(lo, hi sqltypes.Row, loIncl, hiIncl bool, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.ascend(t.root, lo, hi, loIncl, hiIncl, fn)
}

// ascend walks the subtree's entries inside the interval, in order, paying
// for a bound only where the bound can still bite: both ends of the
// in-range run of n's entries are found by binary search, lo travels on
// only into the leftmost child of that run and hi only into the rightmost,
// and everything between is walked with no comparison at all (a nil bound
// means the path taken already proves it). It returns false — stop — when
// fn said so or when the run ended before the node did, i.e. the next
// entry in key order is already beyond hi.
func (t *BTree) ascend(n *btreeNode, lo, hi sqltypes.Row, loIncl, hiIncl bool, fn func(Entry) bool) bool {
	start, end := 0, len(n.entries)
	if lo != nil {
		start = firstAtLeast(n.entries, lo, loIncl)
	}
	if hi != nil {
		end = start + firstBeyond(n.entries[start:], hi, hiIncl)
	}
	if n.leaf() {
		for _, e := range n.entries[start:end] {
			if !fn(e) {
				return false
			}
		}
		return end == len(n.entries)
	}
	// children[i] holds the keys between entries[i-1] and entries[i]: only
	// children[start] can hold keys below lo, only children[end] keys
	// beyond hi.
	for i := start; i <= end; i++ {
		clo, chi := lo, hi
		if i > start {
			clo = nil
		}
		if i < end {
			chi = nil
		}
		if !t.ascend(n.children[i], clo, chi, loIncl, hiIncl, fn) {
			return false
		}
		if i < end && !fn(n.entries[i]) {
			return false
		}
	}
	return end == len(n.entries)
}

// firstAtLeast finds the first entry whose key-prefix is >= lo (or > lo
// when exclusive).
func firstAtLeast(entries []Entry, lo sqltypes.Row, incl bool) int {
	loIdx, hi := 0, len(entries)
	for loIdx < hi {
		mid := (loIdx + hi) / 2
		c := comparePrefix(entries[mid].Key, lo)
		if c < 0 || (c == 0 && !incl) {
			loIdx = mid + 1
		} else {
			hi = mid
		}
	}
	return loIdx
}

// firstBeyond finds the first entry whose key-prefix is > hi (or >= hi
// when exclusive): the mirror of firstAtLeast.
func firstBeyond(entries []Entry, hi sqltypes.Row, incl bool) int {
	return firstAtLeast(entries, hi, !incl)
}

// Ascend walks all entries in order.
func (t *BTree) Ascend(fn func(Entry) bool) {
	t.AscendRange(nil, nil, true, true, fn)
}

// validate checks B-tree invariants (ordering, occupancy, uniform leaf
// depth); it is used by property tests.
func (t *BTree) validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := validateNode(t.root, true)
	return err
}

type btreeInvariantError string

func (e btreeInvariantError) Error() string { return string(e) }

func validateNode(n *btreeNode, isRoot bool) (depth int, err error) {
	if !isRoot && len(n.entries) < degree-1 {
		return 0, btreeInvariantError("underfull node")
	}
	if len(n.entries) > 2*degree {
		return 0, btreeInvariantError("overfull node")
	}
	for i := 1; i < len(n.entries); i++ {
		if compareEntries(n.entries[i-1], n.entries[i]) > 0 {
			return 0, btreeInvariantError("entries out of order")
		}
	}
	if n.leaf() {
		return 1, nil
	}
	if len(n.children) != len(n.entries)+1 {
		return 0, btreeInvariantError("child count mismatch")
	}
	d0 := -1
	for i, c := range n.children {
		d, err := validateNode(c, false)
		if err != nil {
			return 0, err
		}
		if d0 == -1 {
			d0 = d
		} else if d != d0 {
			return 0, btreeInvariantError("uneven leaf depth")
		}
		// Separator ordering.
		if i < len(n.entries) {
			last := c.entries[len(c.entries)-1]
			if compareEntries(last, n.entries[i]) > 0 {
				return 0, btreeInvariantError("separator smaller than left subtree")
			}
		}
		if i > 0 {
			first := c.entries[0]
			if compareEntries(first, n.entries[i-1]) < 0 {
				return 0, btreeInvariantError("separator larger than right subtree")
			}
		}
	}
	return d0 + 1, nil
}
