package engine

import (
	"sync"
	"time"

	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// Cooperative shared scans: the engine half of the MQO layer. When
// several concurrently admitted queries scan the same relation at the
// same barrier snapshot, each pays a full pass over the segment set
// even though the bytes they read are identical — only their filters
// and aggregates differ. A scanCoord lets them share one physical pass:
//
//   - Consumers attach to the node's coordinator for (relation,
//     snapshot) at open and detach at close. The snapshot in the key is
//     the consistency barrier's epoch, so queries pinned to different
//     database states never share a pass.
//   - Whoever needs a segment first becomes the *driver* for exactly
//     one segment: it scans the segment's pages once — charging the
//     page IO and per-slot visibility CPU that a solo scan would charge
//     — and hands the visible-row slice to every attached consumer
//     whose zone maps want that segment. Then it gives up the driver
//     role and broadcasts, so driving rotates among whoever is hungry
//     and no coordinator goroutine or background worker exists.
//   - The scan is circular over segment ordinals: the coordinator
//     remembers its cursor, a mid-scan attacher is served the remaining
//     segments first and is "owed" the already-passed range when the
//     cursor wraps. Attach and detach happen only at segment
//     boundaries.
//   - Each consumer owns its own filter and downstream operators:
//     delivered segments are buffered per consumer and emitted in
//     ordinal order, rows in physical order, with the consumer's own
//     predicate evaluated on its own evalCtx (so filter errors surface
//     on the query that wrote the predicate, and zone-map pruning
//     degrades into a per-consumer skip mask). That emission order is
//     exactly the solo colScanOp's order, which is what keeps shared
//     and unshared results IEEE-bit-identical.
//
// The driver never evaluates any consumer's filter and visibility is a
// pure function of (segment, snapshot), so a driver pass cannot fail:
// error handling stays entirely on the consumer side.

// scanCoordKey identifies one shareable pass: same relation, same
// barrier snapshot. Segment sets are rebuilt per write epoch, so equal
// snapshots see one identical, immutable set.
type scanCoordKey struct {
	rel      *storage.Relation
	snapshot int64
}

// scanCoord is the per-(relation, snapshot) rendezvous. All fields
// below mu — including every attached consumer's need/got/buf arrays —
// are guarded by mu.
type scanCoord struct {
	node *Node
	key  scanCoordKey
	set  *storage.SegmentSet

	mu        sync.Mutex
	cond      *sync.Cond
	cursor    int  // next segment ordinal the circular pass considers
	driving   bool // a consumer is scanning a segment right now
	consumers map[*sharedScanOp]struct{}
}

// attachScan joins (creating if needed) the coordinator for key. It
// returns nil when an existing coordinator was built over a different
// segment generation than the caller resolved — the caller falls back
// to its private scan rather than mixing generations.
func (nd *Node) attachScan(key scanCoordKey, set *storage.SegmentSet, c *sharedScanOp) *scanCoord {
	nd.scanMu.Lock()
	defer nd.scanMu.Unlock()
	co, ok := nd.scans[key]
	if !ok {
		co = &scanCoord{node: nd, key: key, set: set, consumers: map[*sharedScanOp]struct{}{}}
		co.cond = sync.NewCond(&co.mu)
		nd.scans[key] = co
	} else if co.set != set {
		return nil
	}
	co.mu.Lock()
	co.consumers[c] = struct{}{}
	co.mu.Unlock()
	return co
}

// detachScan removes a consumer, retiring the coordinator with its last
// one, and wakes waiters so someone else picks up the driver role.
func (nd *Node) detachScan(co *scanCoord, c *sharedScanOp) {
	nd.scanMu.Lock()
	co.mu.Lock()
	delete(co.consumers, c)
	if len(co.consumers) == 0 && nd.scans[co.key] == co {
		delete(nd.scans, co.key)
	}
	co.mu.Unlock()
	nd.scanMu.Unlock()
	co.cond.Broadcast()
}

// nextNeededLocked picks the next segment wanted by any attached
// consumer, circularly from the cursor (so late attachers extend the
// current pass instead of restarting it). Returns -1 when everyone is
// satisfied.
func (co *scanCoord) nextNeededLocked() int {
	n := len(co.set.Segments)
	for off := 0; off < n; off++ {
		j := (co.cursor + off) % n
		for c := range co.consumers {
			if c.need[j] && !c.got[j] {
				co.cursor = (j + 1) % n
				return j
			}
		}
	}
	return -1
}

// deliverLocked hands one scanned segment's visible rows to every
// consumer whose mask wants it. The slice is shared: consumers treat it
// as immutable (they only read rows out of it).
func (co *scanCoord) deliverLocked(j int, rows []sqltypes.Row) {
	var served int64
	for c := range co.consumers {
		if c.need[j] && !c.got[j] {
			c.got[j] = true
			c.buf[j] = rows
			served++
		}
	}
	co.node.pstats.addSharedDeliveries(served)
}

// scanSegment is one driver pass over segment j: the page touches,
// MaybeFlush cadence and per-slot CPU charge of the solo columnar scan,
// against the driving consumer's own meter, collecting the rows visible
// at the coordinator's snapshot. No filter runs here, so it cannot
// fail.
func (co *scanCoord) scanSegment(ex *execCtx, j int) []sqltypes.Row {
	seg := co.set.Segments[j]
	cfg := ex.meter.Config()
	ex.touch(seg.PageIDs[0], true)
	pg := 0
	var rows []sqltypes.Row
	n := seg.NumRows()
	for i := 0; i < n; i++ {
		for pg < len(seg.PageEnds) && int32(i) >= seg.PageEnds[pg] {
			pg++
			if pg < len(seg.PageIDs) {
				ex.touch(seg.PageIDs[pg], true)
				ex.meter.MaybeFlush()
			}
		}
		ex.meter.Charge(cfg.CPUTuple)
		if !seg.Visible(i, co.key.snapshot) {
			continue
		}
		rows = append(rows, seg.Rows[i])
	}
	for pg+1 < len(seg.PageIDs) {
		pg++
		ex.touch(seg.PageIDs[pg], true)
		ex.meter.MaybeFlush()
	}
	return rows
}

// --- shared columnar scan operator ---

// sharedScanOp wraps a colScanOp when MQO is on: same relation, same
// bound filter, same key-order contract, but segment reads go through
// the node's scan coordinator. fallback is the wrapped colScanOp,
// opened instead when key order is demanded but the generation is not
// key-ordered (it then applies its own heap fallback) or when the
// coordinator's segment generation does not match.
type sharedScanOp struct {
	rel          *storage.Relation
	filter       bexpr
	needKeyOrder bool
	fallback     op

	co            *scanCoord
	flt           filterRun
	usingFallback bool

	need []bool           // per-segment zone-map mask (this consumer's)
	got  []bool           // segments delivered so far
	buf  [][]sqltypes.Row // delivered visible rows, per segment

	emit int // next segment ordinal to emit
	cur  []sqltypes.Row
	cpos int
}

func (s *sharedScanOp) open(ex *execCtx) error {
	s.flt.open(ex, s.filter)
	s.co = nil
	s.usingFallback = false
	s.emit, s.cur, s.cpos = 0, nil, 0

	set, built := s.rel.Segments(ex.snapshot)
	if built {
		ex.node.pstats.addSegBuilt(int64(len(set.Segments)))
		ex.node.pstats.setSegBytes(ex.node.db.SegmentBytes())
	}
	if (s.needKeyOrder && !set.KeyOrdered) || len(set.Segments) == 0 {
		s.usingFallback = true
		return s.fallback.open(ex)
	}

	checks := resolveZoneChecks(collectZonePreds(s.filter, true), &s.flt.ec)
	s.need = make([]bool, len(set.Segments))
	s.got = make([]bool, len(set.Segments))
	s.buf = make([][]sqltypes.Row, len(set.Segments))
	var pruned int64
	for j, seg := range set.Segments {
		keep := true
		for i := range checks {
			if checks[i].prunes(seg) {
				keep = false
				break
			}
		}
		s.need[j] = keep
		if !keep {
			pruned++
		}
	}
	ex.node.pstats.addSegPruned(pruned)

	co := ex.node.attachScan(scanCoordKey{rel: s.rel, snapshot: ex.snapshot}, set, s)
	if co == nil {
		s.usingFallback = true
		return s.fallback.open(ex)
	}
	s.co = co
	ex.node.pstats.addSharedAttach(1)
	return nil
}

func (s *sharedScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	if s.usingFallback {
		return s.fallback.next(ex, out)
	}
	return fillFiltered(ex, s, &s.flt, out)
}

// gather hands out the delivered segments' rows in ordinal order, the
// consumer's own predicate still to run on them. The driver already paid
// the per-slot decode (CPUTuple); what remains per consumer is predicate
// evaluation, priced like any other operator step.
func (s *sharedScanOp) gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error) {
	opCost := ex.meter.Config().CPUOperator
	for {
		if s.cpos < len(s.cur) {
			if len(dst) >= limit {
				break
			}
			rows := s.cur[s.cpos:min(s.cpos+limit-len(dst), len(s.cur))]
			s.cpos += len(rows)
			dst = append(dst, rows...)
			ex.meter.Charge(time.Duration(len(rows)) * opCost)
			ex.meter.MaybeFlush()
			continue
		}
		// The next wanted segment is awaited as soon as this one is spent,
		// before looking at whether dst still has room.
		s.cur = nil
		for s.emit < len(s.need) && !s.need[s.emit] {
			s.emit++
		}
		if s.emit >= len(s.need) {
			break
		}
		rows, err := s.await(ex, s.emit)
		if err != nil {
			return dst, err
		}
		s.cur, s.cpos = rows, 0
		s.emit++
	}
	return dst, nil
}

// await blocks until segment idx has been delivered to this consumer,
// taking the driver role itself whenever no one else holds it. The
// driver contract — scan exactly one needed segment, deliver, release
// the role, broadcast — bounds every wait by one segment pass and lets
// progress continue however consumers come and go.
func (s *sharedScanOp) await(ex *execCtx, idx int) ([]sqltypes.Row, error) {
	co := s.co
	co.mu.Lock()
	for !s.got[idx] {
		if ex.ctx != nil {
			select {
			case <-ex.ctx.Done():
				co.mu.Unlock()
				return nil, ex.ctx.Err()
			default:
			}
		}
		if !co.driving {
			j := co.nextNeededLocked()
			if j < 0 {
				// Every attached consumer is satisfied yet got[idx] is
				// false — impossible while this consumer is attached,
				// but never spin on an invariant.
				co.mu.Unlock()
				return nil, nil
			}
			co.driving = true
			co.mu.Unlock()
			rows := co.scanSegment(ex, j)
			co.mu.Lock()
			co.deliverLocked(j, rows)
			co.driving = false
			ex.node.pstats.addSharedScans(1)
			ex.node.pstats.addSegScanned(1)
			co.cond.Broadcast()
			continue
		}
		co.cond.Wait()
	}
	rows := s.buf[idx]
	s.buf[idx] = nil
	co.mu.Unlock()
	return rows, nil
}

func (s *sharedScanOp) close() {
	if s.usingFallback {
		s.fallback.close()
	}
	if s.co != nil {
		s.co.node.detachScan(s.co, s)
		s.co = nil
	}
	s.need, s.got, s.buf, s.cur = nil, nil, nil, nil
	s.flt.fs.release()
}
