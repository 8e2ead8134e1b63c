package storage

import (
	"sync/atomic"

	"apuama/internal/sqltypes"
)

// Column segments: the read-optimized mirror of the heap. A segment
// covers a fixed span of heap pages and stores that span column-major
// (sqltypes.ColVec per column, with zone maps and optional dictionary/
// RLE encoding) plus a row-view arena whose Row slices are the exact
// values a scan emits — stable storage in the batch contract's sense,
// built once per segment generation instead of once per scan.
//
// The heap stays the write side: MVCC, the consistency barrier and
// replication are untouched. Segments are built lazily per write epoch
// and carry copies of each row's xmin/xmax, which makes a generation
// exact for every snapshot at or below its build epoch (see Segments).
// Writes after the build are overlaid by rebuilding: the first scan
// whose snapshot outruns the generation rebuilds under segMu, exactly
// the epoch-keyed invalidation the cluster's result cache uses.

// SegmentSpanPages is the heap-page span of one segment: the unit
// zone-map pruning skips. A scan folds every row it keeps in heap order
// whichever store serves it, so the span decides only how much a zone
// map can prune, never a result.
const SegmentSpanPages = 8

// Segment is one fixed-span column segment.
type Segment struct {
	// Ordinal is the segment's position in its generation: segment i
	// covers heap pages [i*SegmentSpanPages, (i+1)*SegmentSpanPages).
	Ordinal int

	// PageIDs are the buffer-pool identities of the spanned heap pages;
	// scans charge IO against them so virtual-time accounting stays
	// comparable with heap scans (pruned segments charge nothing).
	PageIDs []int64

	// PageEnds[k] is the cumulative row count through page k, mapping a
	// row index to the heap page whose IO it is charged under.
	PageEnds []int32

	// Rows are per-row views into the segment's value arena, emitted
	// directly into batches (stable storage, never per-scan copies).
	Rows []sqltypes.Row

	// Cols are the column-major vectors; Cols[c].Min/Max is column c's
	// zone map.
	Cols []*sqltypes.ColVec

	// Xmin/Xmax are build-time copies of the rows' MVCC stamps; nil when
	// AllVisible. Stale Xmax copies (deletes after the build) are
	// harmless for snapshots the generation is exact for: those deletes
	// carry write IDs above the build epoch.
	Xmin, Xmax []int64

	// AllVisible short-circuits visibility: every row was base-loaded
	// (xmin 0) and live (xmax 0) at build time.
	AllVisible bool

	// Bytes is the simulated encoded size of the segment.
	Bytes int64
}

// NumRows returns the segment's row count (dead rows included, like
// heap slots).
func (s *Segment) NumRows() int { return len(s.Rows) }

// Visible reports MVCC visibility of row i under snapshot, from the
// build-time stamp copies.
func (s *Segment) Visible(i int, snapshot int64) bool {
	if s.AllVisible {
		return true
	}
	if s.Xmin[i] > snapshot {
		return false
	}
	x := s.Xmax[i]
	return x == 0 || x > snapshot
}

// ColMin returns column c's zone-map minimum (NULL when the column has
// no non-NULL values in this segment).
func (s *Segment) ColMin(c int) sqltypes.Value { return s.Cols[c].Min }

// ColMax returns column c's zone-map maximum.
func (s *Segment) ColMax(c int) sqltypes.Value { return s.Cols[c].Max }

// SegmentSet is one immutable generation of a relation's segments.
type SegmentSet struct {
	// Epoch is the relation write epoch read before the heap was
	// snapshotted: the generation is exact for every snapshot <= Epoch.
	Epoch int64

	// KeyOrdered reports that the full clustered-index key was strictly
	// increasing over all rows in physical order at build time. While it
	// holds, physical order IS clustered-key order, so a columnar scan
	// may replace a clustered index range scan without reordering rows;
	// strictness over all rows (dead included) makes the property
	// inherited by every visible subset at every snapshot.
	KeyOrdered bool

	Segments []*Segment
	Rows     int
	Bytes    int64
}

// Segments returns a segment generation usable at the given snapshot,
// building one if needed; built reports whether this call built it.
//
// Reuse rule (the determinism core): a generation built at epoch E with
// per-row xmin/xmax copies answers any snapshot S <= E exactly — every
// mutation with write ID <= E was captured (mutations bump the epoch
// only after their heap write, and the epoch is read before the page
// snapshot), and mutations it missed have write IDs > E >= S, so their
// stale absence changes no visibility answer at S. A generation is also
// reusable for S > E while the relation epoch still equals E: snapshots
// are only issued for fully applied writes, so epoch == E proves no
// write in (E, S] exists.
func (r *Relation) Segments(snapshot int64) (set *SegmentSet, built bool) {
	if s := r.segments.Load(); s != nil && r.segmentUsable(s, snapshot) {
		return s, false
	}
	r.segMu.Lock()
	defer r.segMu.Unlock()
	if s := r.segments.Load(); s != nil && r.segmentUsable(s, snapshot) {
		return s, false
	}
	s := r.buildSegments()
	r.segments.Store(s)
	return s, true
}

func (r *Relation) segmentUsable(s *SegmentSet, snapshot int64) bool {
	return snapshot <= s.Epoch || r.writeEpoch.Load() == s.Epoch
}

// LoadedSegments returns the current generation without building one
// (nil if none exists) — the read EXPLAIN and the bytes gauge use.
func (r *Relation) LoadedSegments() *SegmentSet { return r.segments.Load() }

// SegmentBytes returns the simulated size of the current generation (0
// when none is built).
func (r *Relation) SegmentBytes() int64 {
	if s := r.segments.Load(); s != nil {
		return s.Bytes
	}
	return 0
}

// InvalidateSegments drops the current generation; the next columnar
// scan rebuilds. Vacuum calls this because it rewrites pages (new page
// IDs, new row positions) without changing the epoch.
func (r *Relation) InvalidateSegments() { r.segments.Store(nil) }

// WriteEpoch returns the highest write ID whose heap mutation on this
// relation has completed.
func (r *Relation) WriteEpoch() int64 { return r.writeEpoch.Load() }

// bumpEpoch advances the write epoch to writeID (monotonic CAS-max).
// Called after the heap mutation and before the write is reported
// applied, so by the time any snapshot covering writeID exists the
// epoch already covers it too.
func (r *Relation) bumpEpoch(writeID int64) {
	for {
		cur := r.writeEpoch.Load()
		if writeID <= cur {
			return
		}
		if r.writeEpoch.CompareAndSwap(cur, writeID) {
			return
		}
	}
}

// buildSegments materializes one generation from the heap. It charges
// no cost meter: segment builds model background materialization work
// (a refresh pipeline), not query-attributed IO; the scan that uses the
// segments pays the same page IO and per-tuple CPU a heap scan would.
func (r *Relation) buildSegments() *SegmentSet {
	// Epoch before pages: any mutation missed by the page read then
	// carries a write ID above the recorded epoch (see Segments).
	epoch := r.writeEpoch.Load()
	pages := r.PageSnapshot()
	counts := make([]int, len(pages))
	total := 0
	for i, p := range pages {
		counts[i] = p.Count()
		total += counts[i]
	}
	nCols := len(r.Schema.Cols)

	set := &SegmentSet{Epoch: epoch, Rows: total}

	// Key-order check: full composite clustered key strictly increasing
	// over ALL rows in physical order.
	cluster := r.ClusteredIndex()
	keyOrdered := cluster != nil

	// One arena for the whole generation: rows are subslices, so a
	// generation costs one values allocation plus the row headers.
	arena := make([]sqltypes.Value, 0, total*nCols)

	var prevKey sqltypes.Row
	for lo := 0; lo < len(pages); lo += SegmentSpanPages {
		hi := min(lo+SegmentSpanPages, len(pages))
		seg := &Segment{Ordinal: lo / SegmentSpanPages}
		segRows := 0
		for pi := lo; pi < hi; pi++ {
			segRows += counts[pi]
		}
		seg.Rows = make([]sqltypes.Row, 0, segRows)
		seg.PageIDs = make([]int64, 0, hi-lo)
		seg.PageEnds = make([]int32, 0, hi-lo)
		seg.Xmin = make([]int64, 0, segRows)
		seg.Xmax = make([]int64, 0, segRows)
		allVisible := true
		for pi := lo; pi < hi; pi++ {
			p := pages[pi]
			for s := int32(0); s < int32(counts[pi]); s++ {
				row := p.Row(s)
				off := len(arena)
				arena = append(arena, row...)
				seg.Rows = append(seg.Rows, sqltypes.Row(arena[off:off+nCols:off+nCols]))
				xmin := p.xmin[s]
				xmax := atomic.LoadInt64(&p.xmax[s])
				seg.Xmin = append(seg.Xmin, xmin)
				seg.Xmax = append(seg.Xmax, xmax)
				if xmin != 0 || xmax != 0 {
					allVisible = false
				}
				if keyOrdered {
					key := cluster.KeyFor(row)
					if prevKey != nil && compareRows(prevKey, key) >= 0 {
						keyOrdered = false
					}
					prevKey = key
				}
			}
			seg.PageIDs = append(seg.PageIDs, p.ID)
			seg.PageEnds = append(seg.PageEnds, int32(len(seg.Rows)))
		}
		if allVisible {
			seg.AllVisible = true
			seg.Xmin, seg.Xmax = nil, nil
		}
		seg.Cols = make([]*sqltypes.ColVec, nCols)
		for c := 0; c < nCols; c++ {
			seg.Cols[c] = sqltypes.BuildColVec(r.Schema.Cols[c].Kind, seg.Rows, c)
			seg.Bytes += seg.Cols[c].EncodedBytes()
		}
		if !seg.AllVisible {
			seg.Bytes += int64(len(seg.Rows)) * 16 // xmin/xmax stamps
		}
		set.Segments = append(set.Segments, seg)
		set.Bytes += seg.Bytes
	}
	set.KeyOrdered = keyOrdered
	return set
}

// compareRows orders composite keys positionally.
func compareRows(a, b sqltypes.Row) int {
	for i := range a {
		if i >= len(b) {
			break
		}
		if c := sqltypes.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}
