package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"apuama/internal/sqltypes"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind sqltypes.Kind
}

// Schema is an ordered set of columns.
type Schema struct {
	Cols []Column
}

// ColIndex returns the position of the named column or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Index is a B-tree over a column list. Exactly one index per relation may
// be Clustered, meaning base data was loaded in its key order so that
// index-range scans touch contiguous heap pages — the physical property
// Simple Virtual Partitioning depends on.
type Index struct {
	Name      string
	Cols      []int // column positions forming the key
	Unique    bool
	Clustered bool
	Tree      *BTree
}

// KeyFor extracts the index key from a row.
func (ix *Index) KeyFor(row sqltypes.Row) sqltypes.Row {
	key := make(sqltypes.Row, len(ix.Cols))
	for i, c := range ix.Cols {
		key[i] = row[c]
	}
	return key
}

// Relation is a heap of MVCC rows plus its indexes and statistics. One
// Relation object is shared by all cluster nodes (see package comment);
// per-node state (buffer pool, snapshot) lives in the engine layer.
type Relation struct {
	Name   string
	Schema Schema

	mu       sync.RWMutex
	pages    []*Page
	spare    []*Page // pages Truncate emptied, for the rows inserted next
	pageCap  int     // bytes per page
	indexes  []*Index
	byName   map[string]*Index
	liveRows atomic.Int64

	// claimedWrite is the highest write ID whose heap mutation a replica
	// has claimed; replicas replaying an already-claimed write charge IO
	// but skip the (shared-heap) mutation. Monotonic because the cluster
	// middleware delivers writes to every node in the same total order.
	claimedWrite atomic.Int64

	// statsMu guards min/max column statistics.
	statsMu sync.Mutex
	colMin  []sqltypes.Value
	colMax  []sqltypes.Value

	// writeEpoch is the highest write ID whose heap mutation on this
	// relation has completed; segment generations key their validity on
	// it (see segment.go). Bumped after the mutation, before the write
	// is reported applied.
	writeEpoch atomic.Int64

	// segments is the current columnar generation (nil until a columnar
	// scan builds one); segMu serializes rebuilds.
	segMu    sync.Mutex
	segments atomic.Pointer[SegmentSet]
}

// NewRelation creates an empty relation with the given simulated page size.
func NewRelation(name string, schema Schema, pageSize int) *Relation {
	if pageSize <= 0 {
		pageSize = 8192
	}
	return &Relation{
		Name:    name,
		Schema:  schema,
		pageCap: pageSize,
		byName:  map[string]*Index{},
		colMin:  make([]sqltypes.Value, len(schema.Cols)),
		colMax:  make([]sqltypes.Value, len(schema.Cols)),
	}
}

// AddIndex declares an index over the relation's existing rows, built
// bottom-up from their sorted entries (buildIndex).
func (r *Relation) AddIndex(name string, cols []string, unique, clustered bool) (*Index, error) {
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := r.Schema.ColIndex(c)
		if p < 0 {
			return nil, fmt.Errorf("relation %s: no column %q for index %s", r.Name, c, name)
		}
		positions[i] = p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("relation %s: duplicate index %q", r.Name, name)
	}
	if clustered {
		for _, ix := range r.indexes {
			if ix.Clustered {
				return nil, fmt.Errorf("relation %s: already has clustered index %s", r.Name, ix.Name)
			}
		}
	}
	ix := &Index{Name: name, Cols: positions, Unique: unique, Clustered: clustered}
	ix.Tree = buildIndex(ix, r.pages)
	r.indexes = append(r.indexes, ix)
	r.byName[name] = ix
	return ix, nil
}

// Indexes returns the relation's indexes (the slice must not be mutated).
func (r *Relation) Indexes() []*Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.indexes
}

// ClusteredIndex returns the clustered index or nil.
func (r *Relation) ClusteredIndex() *Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, ix := range r.indexes {
		if ix.Clustered {
			return ix
		}
	}
	return nil
}

// IndexOn returns an index whose key starts with the given column
// position, preferring the clustered one; nil if none exists.
func (r *Relation) IndexOn(col int) *Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var found *Index
	for _, ix := range r.indexes {
		if ix.Cols[0] == col {
			if ix.Clustered {
				return ix
			}
			if found == nil {
				found = ix
			}
		}
	}
	return found
}

// Insert appends a row created by writeID and updates every index.
func (r *Relation) Insert(writeID int64, row sqltypes.Row) (RowID, error) {
	if len(row) != len(r.Schema.Cols) {
		return RowID{}, fmt.Errorf("relation %s: row has %d values, schema has %d", r.Name, len(row), len(r.Schema.Cols))
	}
	width := sqltypes.RowWidth(row)
	r.mu.Lock()
	var p *Page
	if n := len(r.pages); n > 0 && r.pages[n-1].hasRoom(width, r.pageCap) {
		p = r.pages[n-1]
	} else if n := len(r.spare); n > 0 {
		p, r.spare = r.spare[n-1], r.spare[:n-1]
		r.pages = append(r.pages, p)
	} else {
		p = newPage(r.pageCap)
		r.pages = append(r.pages, p)
	}
	rid := RowID{Page: int32(len(r.pages) - 1), Slot: 0}
	rid.Slot = p.append(row, width, writeID)
	indexes := r.indexes
	r.mu.Unlock()

	for _, ix := range indexes {
		ix.Tree.Insert(ix.KeyFor(row), rid)
	}
	r.liveRows.Add(1)
	r.updateStats(row)
	r.bumpEpoch(writeID)
	return rid, nil
}

// Truncate empties the relation and keeps its pages for the rows inserted
// next. Every slot is cleared, so the relation references no row it held,
// and the row count and column ranges start over. It is for a relation
// without indexes that one goroutine owns outright — a composition table
// kept across queries — since a concurrent scan would see its slots
// vanish.
func (r *Relation) Truncate() {
	r.mu.Lock()
	for _, p := range r.pages {
		p.reset()
	}
	r.spare = append(r.spare, r.pages...)
	clear(r.pages)
	r.pages = r.pages[:0]
	r.mu.Unlock()
	r.liveRows.Store(0)
	r.statsMu.Lock()
	clear(r.colMin)
	clear(r.colMax)
	r.statsMu.Unlock()
}

// MarkDeleted kills the row as of writeID. It reports whether this call
// performed the kill; a false return on an already-dead row is how
// replayed replica writes stay idempotent.
func (r *Relation) MarkDeleted(rid RowID, writeID int64) bool {
	p := r.page(rid.Page)
	if p == nil || int(rid.Slot) >= p.Count() {
		return false
	}
	if p.markDeleted(rid.Slot, writeID) {
		r.liveRows.Add(-1)
		r.bumpEpoch(writeID)
		return true
	}
	return false
}

// Fetch returns the row at rid (which must have been produced by a scan or
// index lookup, hence published).
func (r *Relation) Fetch(rid RowID) sqltypes.Row {
	return r.page(rid.Page).Row(rid.Slot)
}

// VisibleAt reports MVCC visibility of rid under snapshot.
func (r *Relation) VisibleAt(rid RowID, snapshot int64) bool {
	p := r.page(rid.Page)
	return p != nil && int(rid.Slot) < p.Count() && p.Visible(rid.Slot, snapshot)
}

// PageOf maps a RowID to its page (for buffer-pool charging).
func (r *Relation) PageOf(rid RowID) *Page { return r.page(rid.Page) }

func (r *Relation) page(i int32) *Page {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(i) >= len(r.pages) {
		return nil
	}
	return r.pages[i]
}

// PageSnapshot returns the current page list; because pages are append-only
// a scan can iterate the snapshot without holding the lock (MVCC hides rows
// newer than the reader's snapshot anyway).
func (r *Relation) PageSnapshot() []*Page {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pages
}

// NumPages returns the current page count.
func (r *Relation) NumPages() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pages)
}

// LiveRows returns the live-row estimate maintained by inserts/deletes.
func (r *Relation) LiveRows() int64 { return r.liveRows.Load() }

func (r *Relation) updateStats(row sqltypes.Row) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	widen(r.colMin, r.colMax, row)
}

// widen stretches the column ranges [lo[i], hi[i]] to cover row's
// non-NULL values. A value equal to a bound leaves it as it is, so the
// bounds are the first values seen at each extreme.
func widen(lo, hi []sqltypes.Value, row sqltypes.Row) {
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if lo[i].IsNull() || sqltypes.Compare(v, lo[i]) < 0 {
			lo[i] = v
		}
		if hi[i].IsNull() || sqltypes.Compare(v, hi[i]) > 0 {
			hi[i] = v
		}
	}
}

// ClaimWrite reports whether the caller is the first replica to apply
// write writeID to this relation and should therefore perform the actual
// shared-heap mutation. Later replicas (claim already at or past the ID)
// get false and only simulate the cost.
func (r *Relation) ClaimWrite(writeID int64) bool {
	for {
		cur := r.claimedWrite.Load()
		if writeID <= cur {
			return false
		}
		if r.claimedWrite.CompareAndSwap(cur, writeID) {
			return true
		}
	}
}

// ColRange returns the observed min and max of a column (NULL values if
// the relation is empty). Virtual partitioning uses this to split the VPA
// domain; the planner uses it for range selectivity.
func (r *Relation) ColRange(col int) (lo, hi sqltypes.Value) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.colMin[col], r.colMax[col]
}
