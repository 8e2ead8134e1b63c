package storage

import (
	"sync/atomic"

	"apuama/internal/sqltypes"
)

// Vacuum physically removes rows deleted at or before horizon (no
// snapshot at or above the horizon can see them), compacts the heap and
// rebuilds every index bottom-up from the compacted pages (buildIndex).
// Like VACUUM FULL, it requires exclusivity: the caller must guarantee no
// queries or writes are in flight on any node — the cluster facade
// quiesces before calling. Returns the number of row versions reclaimed.
//
// Without vacuuming, repeated refresh cycles (RF1 inserts + RF2 deletes)
// grow the heap without bound; the mixed-workload experiments run long
// enough that this matters for long soak runs.
func (r *Relation) Vacuum(horizon int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()

	var removed int64
	var newPages []*Page
	var cur *Page
	for _, p := range r.pages {
		n := int32(p.Count())
		for s := int32(0); s < n; s++ {
			xmax := atomic.LoadInt64(&p.xmax[s])
			if xmax != 0 && xmax <= horizon {
				removed++
				continue
			}
			row := p.rows[s]
			width := p.widthOf(s)
			if cur == nil || !cur.hasRoom(width, r.pageCap) {
				cur = newPage(r.pageCap)
				newPages = append(newPages, cur)
			}
			slot := cur.append(row, width, p.xmin[s])
			if xmax != 0 {
				cur.xmax[slot] = xmax
			}
		}
	}
	r.pages = newPages

	// Rebuild every index against the compacted heap, bottom-up.
	for _, ix := range r.indexes {
		ix.Tree.adopt(buildIndex(ix, r.pages))
	}

	// The compaction rewrote pages (new IDs, new row positions) without
	// changing the write epoch; drop the columnar generation so the next
	// scan rebuilds against the new heap layout.
	r.segments.Store(nil)
	return removed
}

// widthOf recovers the simulated width of a stored row (pages track only
// total bytes; recompute from the tuple).
func (p *Page) widthOf(slot int32) int {
	return sqltypes.RowWidth(p.rows[slot])
}
