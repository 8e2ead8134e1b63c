package storage

import (
	"math/rand"
	"testing"

	"apuama/internal/sqltypes"
)

// The range walk's contract, checked against the one thing that cannot be
// wrong about it: AscendRange(lo, hi, loIncl, hiIncl) visits exactly the
// entries of a full Ascend whose key-prefix lies inside the interval, in
// the same order, and stops the moment fn says so.

// inRange is the interval predicate AscendRange promises, spelled with the
// same prefix comparison the tree uses.
func inRange(key, lo, hi sqltypes.Row, loIncl, hiIncl bool) bool {
	if lo != nil {
		if c := comparePrefix(key, lo); c < 0 || (c == 0 && !loIncl) {
			return false
		}
	}
	if hi != nil {
		if c := comparePrefix(key, hi); c > 0 || (c == 0 && !hiIncl) {
			return false
		}
	}
	return true
}

func sameEntry(a, b Entry) bool { return compareEntries(a, b) == 0 }

// rangeModel is a tree plus the multiset of entries it should hold.
type rangeModel struct {
	tree *BTree
	live []Entry
	next int32 // next unused RID page, so every entry is distinct
}

func (m *rangeModel) insert(key sqltypes.Row) {
	rid := RowID{Page: m.next}
	m.next++
	m.tree.Insert(key, rid)
	m.live = append(m.live, Entry{Key: key, RID: rid})
}

func (m *rangeModel) deleteAt(i int) bool {
	e := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	return m.tree.Delete(e.Key, e.RID)
}

// all is the full in-order walk.
func (m *rangeModel) all() []Entry {
	var out []Entry
	m.tree.Ascend(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// interiorKeys returns the keys stored in non-leaf nodes: the bounds most
// likely to trip a walk that hands lo/hi to the wrong child.
func interiorKeys(n *btreeNode, out []sqltypes.Row) []sqltypes.Row {
	if n.leaf() {
		return out
	}
	for _, e := range n.entries {
		out = append(out, e.Key)
	}
	for _, c := range n.children {
		out = interiorKeys(c, out)
	}
	return out
}

// checkRange runs one interval against the filtered full walk, then stops
// it early: at every position when the run is short, at one random
// position otherwise. It returns the number of cases it checked.
func checkRange(t *testing.T, r *rand.Rand, m *rangeModel, all []Entry, lo, hi sqltypes.Row, loIncl, hiIncl bool) int {
	t.Helper()
	var want []Entry
	for _, e := range all {
		if inRange(e.Key, lo, hi, loIncl, hiIncl) {
			want = append(want, e)
		}
	}
	var got []Entry
	m.tree.AscendRange(lo, hi, loIncl, hiIncl, func(e Entry) bool {
		got = append(got, e)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range lo=%v(%v) hi=%v(%v): %d entries, filtered Ascend has %d", lo, loIncl, hi, hiIncl, len(got), len(want))
	}
	for i := range got {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("range lo=%v(%v) hi=%v(%v): entry %d is %v, want %v", lo, loIncl, hi, hiIncl, i, got[i], want[i])
		}
	}
	cases := 1
	stopAt := func(k int) {
		calls := 0
		m.tree.AscendRange(lo, hi, loIncl, hiIncl, func(e Entry) bool {
			if !sameEntry(e, want[calls]) {
				t.Fatalf("early stop at %d: entry %d is %v, want %v", k, calls, e, want[calls])
			}
			calls++
			return calls <= k
		})
		if calls != k+1 {
			t.Fatalf("range lo=%v(%v) hi=%v(%v): stop at %d made %d calls", lo, loIncl, hi, hiIncl, k, calls)
		}
		cases++
	}
	switch {
	case len(want) == 0:
	case len(want) <= 24:
		for k := range want {
			stopAt(k)
		}
	default:
		stopAt(r.Intn(len(want)))
	}
	return cases
}

func TestAscendRangeMatchesFilteredAscend(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	const (
		domain = 150 // few distinct first columns: duplicates everywhere, every value probed
		subdom = 5
	)
	// single: one-column keys with heavy duplication. composite: two-column
	// keys, probed by one-column prefixes and by full keys.
	randKey := map[string]func() sqltypes.Row{
		"single": func() sqltypes.Row { return intKey(int64(r.Intn(domain))) },
		"composite": func() sqltypes.Row {
			return sqltypes.Row{sqltypes.NewInt(int64(r.Intn(domain))), sqltypes.NewInt(int64(r.Intn(subdom)))}
		},
	}
	randBound := func(composite bool) sqltypes.Row {
		switch v := int64(r.Intn(domain+20)) - 10; {
		case r.Intn(8) == 0:
			return nil
		case composite && r.Intn(2) == 0:
			return sqltypes.Row{sqltypes.NewInt(v), sqltypes.NewInt(int64(r.Intn(subdom+2)) - 1)}
		default:
			return intKey(v)
		}
	}
	total := 0
	for _, shape := range []string{"single", "composite"} {
		m := &rangeModel{tree: NewBTree()}
		for i := 0; i < 2500; i++ {
			m.insert(randKey[shape]())
		}
		for round := 0; round < 8; round++ {
			// Interleave deletes and inserts between probe rounds; the last
			// rounds shrink the tree so shallow shapes are probed too.
			for i := 0; i < 400; i++ {
				if len(m.live) > 0 && (round >= 4 || r.Intn(2) == 0) {
					if !m.deleteAt(r.Intn(len(m.live))) {
						t.Fatal("delete of a live entry failed")
					}
				} else {
					m.insert(randKey[shape]())
				}
			}
			if err := m.tree.validate(); err != nil {
				t.Fatal(err)
			}
			all := m.all()
			if len(all) != len(m.live) {
				t.Fatalf("%s round %d: Ascend sees %d entries, model has %d", shape, round, len(all), len(m.live))
			}
			for _, k := range interiorKeys(m.tree.root, nil) {
				for mask := 0; mask < 4; mask++ {
					total += checkRange(t, r, m, all, k, k, mask&1 != 0, mask&2 != 0)
				}
				total += checkRange(t, r, m, all, k, nil, r.Intn(2) == 0, true)
				total += checkRange(t, r, m, all, nil, k[:1], true, r.Intn(2) == 0)
			}
			for i := 0; i < 150; i++ {
				lo, hi := randBound(shape == "composite"), randBound(shape == "composite")
				total += checkRange(t, r, m, all, lo, hi, r.Intn(2) == 0, r.Intn(2) == 0) // inverted and empty included
			}
		}
	}
	t.Logf("%d cases", total)
	if total < 10000 {
		t.Fatalf("only %d cases ran, want >= 10000", total)
	}
}
