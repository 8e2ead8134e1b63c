package storage

import (
	"sync/atomic"

	"apuama/internal/sqltypes"
)

// RowID addresses a row: page index within its relation, slot within the
// page. Relations are append-only (MVCC deletes only mark rows dead), so
// RowIDs are stable forever.
type RowID struct {
	Page int32
	Slot int32
}

// pageIDCounter hands out process-unique page IDs so one buffer pool can
// span all relations of a database, like a real buffer manager.
var pageIDCounter atomic.Int64

// Page is one simulated disk page. Slot arrays are allocated at full
// capacity up front and never reallocated, so readers may access any
// published slot without holding the relation lock: the atomic publish
// of the slot count (release store) paired with Count's acquire load
// orders the row and xmin writes before any reader sees the slot.
type Page struct {
	// ID is the buffer-pool identity of the page.
	ID int64
	// rows holds the tuple data; slots beyond the published count are
	// not yet visible.
	rows []sqltypes.Row
	// xmin[i] is the write (transaction) that created slot i; base-loaded
	// rows have xmin 0 and are visible to every snapshot.
	xmin []int64
	// xmax[i] is the write that deleted slot i, or 0 while the row is
	// live. Accessed atomically: deletes race with concurrent scans.
	xmax []int64
	// n is the published slot count.
	n atomic.Int32
	// bytes is the simulated space used.
	bytes int
}

// slotWidthEstimate sizes the preallocated slot arrays: pages of tables
// with unusually narrow rows simply fill by slot count instead of bytes
// (hasRoom checks both), trading a few extra pages for never having to
// grow the arrays under concurrent readers.
const slotWidthEstimate = 48

func newPage(pageCap int) *Page {
	maxSlots := pageCap / slotWidthEstimate
	if maxSlots < 1 {
		maxSlots = 1
	}
	return &Page{
		ID:   pageIDCounter.Add(1),
		rows: make([]sqltypes.Row, maxSlots),
		xmin: make([]int64, maxSlots),
		xmax: make([]int64, maxSlots),
	}
}

// Count returns the number of published slots.
func (p *Page) Count() int { return int(p.n.Load()) }

// Row returns the tuple in the given slot (the slot must be published).
func (p *Page) Row(slot int32) sqltypes.Row { return p.rows[slot] }

// Visible reports whether slot's row is visible to a snapshot. A snapshot
// S sees rows created by writes <= S and not yet deleted by a write <= S.
func (p *Page) Visible(slot int32, snapshot int64) bool {
	if p.xmin[slot] > snapshot {
		return false
	}
	xmax := atomic.LoadInt64(&p.xmax[slot])
	return xmax == 0 || xmax > snapshot
}

// Dead reports whether the row was deleted by any write at all (used by
// index-only existence checks and statistics).
func (p *Page) Dead(slot int32) bool {
	return atomic.LoadInt64(&p.xmax[slot]) != 0
}

// hasRoom reports whether a row of the given width fits within the byte
// budget and the preallocated slot capacity.
func (p *Page) hasRoom(width, pageCap int) bool {
	return int(p.n.Load()) < len(p.rows) && p.bytes+width <= pageCap
}

// append adds a row with the creating write ID; the caller must hold the
// relation's write lock and have checked hasRoom. Returns the slot.
func (p *Page) append(row sqltypes.Row, width int, xmin int64) int32 {
	slot := p.n.Load()
	p.rows[slot] = row
	p.xmin[slot] = xmin
	p.xmax[slot] = 0
	p.bytes += width
	p.n.Store(slot + 1) // release: publishes the slot to lock-free readers
	return slot
}

// reset empties the page for reuse, dropping its rows.
func (p *Page) reset() {
	clear(p.rows[:p.n.Load()])
	p.n.Store(0)
	p.bytes = 0
}

// markDeleted sets xmax to writeID if the row is still live; it reports
// whether this call performed the kill (false if already dead, which makes
// replica-side replays idempotent).
func (p *Page) markDeleted(slot int32, writeID int64) bool {
	return atomic.CompareAndSwapInt64(&p.xmax[slot], 0, writeID)
}
