package storage

import (
	"cmp"
	"fmt"
	"slices"

	"apuama/internal/sqltypes"
)

// Bulk building. Where many rows reach an index at once — a bulk Append,
// AddIndex's back-fill of a populated relation, Vacuum's rebuild — the
// index's (key, RID) entries are collected, sorted only when they did not
// arrive in order, and the tree is built bottom-up (bulkTree) instead of
// inserting one entry at a time. Relation.Insert stays the DML path.

// indexBuild collects one index's entries for a bottom-up build.
type indexBuild struct {
	cols    []int
	entries []Entry
	slab    sqltypes.Row // the keys of the rows still to come, not yet cut
	sorted  bool         // the entries so far are in compareEntries order
}

// newIndexBuild readies a build of ix's entries for rows rows: the entry
// list and the key slab are sized for exactly them.
func newIndexBuild(ix *Index, rows int) *indexBuild {
	return &indexBuild{
		cols:    ix.Cols,
		entries: make([]Entry, 0, rows),
		slab:    make(sqltypes.Row, rows*len(ix.Cols)),
		sorted:  true,
	}
}

// add collects row's entry, its key cut from the build's slab.
func (b *indexBuild) add(row sqltypes.Row, rid RowID) {
	k := len(b.cols)
	key := b.slab[:k:k]
	b.slab = b.slab[k:]
	for i, c := range b.cols {
		key[i] = row[c]
	}
	b.push(Entry{Key: key, RID: rid})
}

func (b *indexBuild) push(e Entry) {
	if b.sorted && len(b.entries) > 0 && compareEntries(b.entries[len(b.entries)-1], e) > 0 {
		b.sorted = false
	}
	b.entries = append(b.entries, e)
}

// finish returns the collected entries in compareEntries order.
func (b *indexBuild) finish() []Entry {
	if !b.sorted {
		b.entries = sortEntries(b.entries, len(b.cols))
	}
	return b.entries
}

// sortEntries returns entries, whose keys all have width columns, in
// compareEntries order. When every leading key value is int-backed
// (Compare orders those by I alone) it sorts an inline copy of that value
// and of the RID beside each entry's position, so a single-column key's
// entries are ordered without reading a Key slice; ties on a wider key
// fall back to compareEntries.
func sortEntries(entries []Entry, width int) []Entry {
	type lead struct {
		v   int64
		rid RowID
		pos int32
	}
	leads := make([]lead, len(entries))
	for i, e := range entries {
		if width == 0 || !intBacked(e.Key[0]) {
			slices.SortFunc(entries, compareEntries)
			return entries
		}
		leads[i] = lead{e.Key[0].I, e.RID, int32(i)}
	}
	slices.SortFunc(leads, func(a, b lead) int {
		switch {
		case a.v != b.v:
			return cmp.Compare(a.v, b.v)
		case width > 1:
			return compareEntries(entries[a.pos], entries[b.pos])
		case a.rid.Page != b.rid.Page:
			return cmp.Compare(a.rid.Page, b.rid.Page)
		}
		return cmp.Compare(a.rid.Slot, b.rid.Slot)
	})
	sorted := make([]Entry, len(entries))
	for i, l := range leads {
		sorted[i] = entries[l.pos]
	}
	return sorted
}

// intBacked reports whether Compare orders v against any other int-backed
// value by I alone: it is neither NULL, a float nor a string.
func intBacked(v sqltypes.Value) bool {
	return v.K != sqltypes.KindNull && v.K != sqltypes.KindFloat && v.K != sqltypes.KindString
}

// buildIndex builds a tree of ix's entries for every row of pages.
func buildIndex(ix *Index, pages []*Page) *BTree {
	rows := 0
	for _, p := range pages {
		rows += p.Count()
	}
	b := newIndexBuild(ix, rows)
	for pi, p := range pages {
		for s := int32(0); s < int32(p.Count()); s++ {
			b.add(p.rows[s], RowID{Page: int32(pi), Slot: s})
		}
	}
	return bulkTree(b.finish())
}

// Append bulk-loads rows created by writeID: they fill pages exactly as
// one Insert per row into an empty relation would (to a non-empty one they
// go on fresh pages after its last), and every index is rebuilt bottom-up
// over its old entries and the new ones. The heap pages, the trees, the
// live-row count and the column ranges are published together, under the
// relation's lock, so no reader sees a new heap row its indexes lack, nor
// an index entry without its row. Append must not run beside another
// write to the relation; readers may.
func (r *Relation) Append(writeID int64, rows []sqltypes.Row) error {
	r.mu.RLock()
	base, indexes := len(r.pages), r.indexes
	r.mu.RUnlock()

	builds := make([]*indexBuild, len(indexes))
	for i, ix := range indexes {
		builds[i] = newIndexBuild(ix, len(rows))
		ix.Tree.Ascend(func(e Entry) bool {
			builds[i].push(e)
			return true
		})
	}
	lo := make([]sqltypes.Value, len(r.Schema.Cols))
	hi := make([]sqltypes.Value, len(r.Schema.Cols))
	var pages []*Page
	var p *Page
	for i, row := range rows {
		if len(row) != len(r.Schema.Cols) {
			return fmt.Errorf("relation %s: row %d has %d values, schema has %d", r.Name, i, len(row), len(r.Schema.Cols))
		}
		width := sqltypes.RowWidth(row)
		if p == nil || !p.hasRoom(width, r.pageCap) {
			p = newPage(r.pageCap)
			pages = append(pages, p)
		}
		rid := RowID{Page: int32(base + len(pages) - 1), Slot: p.append(row, width, writeID)}
		for _, b := range builds {
			b.add(row, rid)
		}
		widen(lo, hi, row)
	}
	trees := make([]*BTree, len(builds))
	for i, b := range builds {
		trees[i] = bulkTree(b.finish())
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pages) != base || len(r.indexes) != len(indexes) {
		return fmt.Errorf("relation %s: written to during a bulk append", r.Name)
	}
	r.pages = append(r.pages, pages...)
	for i, ix := range indexes {
		ix.Tree.adopt(trees[i])
	}
	r.liveRows.Add(int64(len(rows)))
	r.statsMu.Lock()
	widen(r.colMin, r.colMax, lo)
	widen(r.colMin, r.colMax, hi)
	r.statsMu.Unlock()
	r.bumpEpoch(writeID)
	return nil
}
