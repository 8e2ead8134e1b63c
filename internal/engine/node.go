package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"apuama/internal/costmodel"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// Node is one cluster member's engine instance: a view over the shared
// Database with its own buffer pool, cost meter, snapshot watermark and
// session settings. In the paper this is one PostgreSQL server; the
// middleware treats it as a black box that accepts SQL text.
type Node struct {
	id    int
	db    *Database
	pool  *storage.BufferPool
	meter *costmodel.Meter

	// watermark is the last write applied on this node; reads snapshot at
	// this value. It only advances when the middleware delivers writes,
	// which is how replica divergence (and Apuama's consistency barrier)
	// is exercised.
	watermark atomic.Int64

	settingsMu sync.RWMutex
	settings   map[string]sqltypes.Value

	// pstats counts columnar and shared-scan activity; SetObs mirrors it
	// into a metrics registry (handles are nil-safe, so unwired nodes pay
	// nothing).
	pstats scanStats

	// scans holds the node's live shared-scan coordinators (MQO), one
	// per (relation, snapshot) with attached consumers.
	scanMu sync.Mutex
	scans  map[scanCoordKey]*scanCoord

	applying sync.Mutex // serializes write application on this node
}

// scanStats is the node's scan counter block.
type scanStats struct {
	// Columnar segment activity.
	segBuilt   atomic.Int64 // segments materialized from the heap
	segPruned  atomic.Int64 // segments skipped via zone maps
	segScanned atomic.Int64 // segments actually scanned

	// Cooperative shared-scan activity (MQO).
	sharedAttach atomic.Int64 // consumers that attached to a coordinator
	sharedScans  atomic.Int64 // segments physically scanned by drivers
	sharedDeliv  atomic.Int64 // consumer-segments served from a driver's pass

	// obs mirrors (nil-safe no-ops when no registry is wired).
	mSegBuilt     *obs.Counter
	mSegPruned    *obs.Counter
	mSegScanned   *obs.Counter
	mSegBytes     *obs.Gauge
	mSharedAttach *obs.Counter
	mSharedScans  *obs.Counter
	mSharedDeliv  *obs.Counter
}

func (ps *scanStats) addSegBuilt(n int64)   { ps.segBuilt.Add(n); ps.mSegBuilt.Add(n) }
func (ps *scanStats) addSegPruned(n int64)  { ps.segPruned.Add(n); ps.mSegPruned.Add(n) }
func (ps *scanStats) addSegScanned(n int64) { ps.segScanned.Add(n); ps.mSegScanned.Add(n) }
func (ps *scanStats) setSegBytes(b int64)   { ps.mSegBytes.Set(b) }

func (ps *scanStats) addSharedAttach(n int64)     { ps.sharedAttach.Add(n); ps.mSharedAttach.Add(n) }
func (ps *scanStats) addSharedScans(n int64)      { ps.sharedScans.Add(n); ps.mSharedScans.Add(n) }
func (ps *scanStats) addSharedDeliveries(n int64) { ps.sharedDeliv.Add(n); ps.mSharedDeliv.Add(n) }

// NewNode attaches a new node to the database with its own buffer pool.
func NewNode(id int, db *Database) *Node {
	meter := costmodel.NewMeter(db.cfg)
	return &Node{
		id:       id,
		db:       db,
		pool:     storage.NewBufferPool(db.cfg.CachePages, meter),
		meter:    meter,
		settings: map[string]sqltypes.Value{},
		scans:    map[scanCoordKey]*scanCoord{},
	}
}

// ID returns the node's cluster identifier.
func (nd *Node) ID() int { return nd.id }

// DB returns the shared database.
func (nd *Node) DB() *Database { return nd.db }

// Meter returns the node's cost meter.
func (nd *Node) Meter() *costmodel.Meter { return nd.meter }

// Pool returns the node's buffer pool.
func (nd *Node) Pool() *storage.BufferPool { return nd.pool }

// Watermark returns the last applied write ID (the read snapshot).
func (nd *Node) Watermark() int64 { return nd.watermark.Load() }

// AttachAt fast-forwards a fresh node's watermark to writeID, as when a
// new replica attaches from a backup taken at a known replication
// position. It must only move forward.
func (nd *Node) AttachAt(writeID int64) error {
	nd.applying.Lock()
	defer nd.applying.Unlock()
	if wm := nd.watermark.Load(); writeID < wm {
		return fmt.Errorf("cannot attach at %d: watermark already %d", writeID, wm)
	}
	nd.watermark.Store(writeID)
	return nil
}

// touchPage charges a page access to the node's buffer pool.
func (nd *Node) touchPage(pageID int64, sequential bool) {
	nd.pool.Access(pageID, sequential)
}

// ParallelStats reports intra-node parallelism activity: queries that
// ran a parallel fragment, morsels dispatched, and morsels stolen. A
// sub-query runs serially on the goroutine that opened it, so all three
// are always 0; the method stays for callers that still read them.
func (nd *Node) ParallelStats() (queries, morsels, steals int64) { return 0, 0, 0 }

// SegmentStats reports cumulative columnar-scan activity on this node:
// segments materialized from the heap, segments skipped via zone maps,
// and segments scanned.
func (nd *Node) SegmentStats() (built, pruned, scanned int64) {
	return nd.pstats.segBuilt.Load(), nd.pstats.segPruned.Load(), nd.pstats.segScanned.Load()
}

// SharedScanStats reports cumulative cooperative shared-scan activity
// on this node: consumers attached to a coordinator, segments
// physically scanned by drivers, and consumer-segments served from
// those passes. deliveries/scans > 1 means passes were genuinely
// shared.
func (nd *Node) SharedScanStats() (attached, scans, deliveries int64) {
	return nd.pstats.sharedAttach.Load(), nd.pstats.sharedScans.Load(), nd.pstats.sharedDeliv.Load()
}

// SharedScanIdle reports whether the node has no live shared-scan
// coordinators (every consumer has detached) — the invariant the chaos
// tests assert after failures.
func (nd *Node) SharedScanIdle() bool {
	nd.scanMu.Lock()
	defer nd.scanMu.Unlock()
	return len(nd.scans) == 0
}

// SetObs mirrors the node's scan counters into a metrics registry (nil
// disables; handles are nil-safe).
func (nd *Node) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	id := fmt.Sprintf("%d", nd.id)
	nd.pstats.mSegBuilt = reg.Counter(obs.Labeled(obs.MEngineSegmentsBuilt, "node", id))
	nd.pstats.mSegPruned = reg.Counter(obs.Labeled(obs.MEngineSegmentsPruned, "node", id))
	nd.pstats.mSegScanned = reg.Counter(obs.Labeled(obs.MEngineSegmentsScanned, "node", id))
	nd.pstats.mSegBytes = reg.Gauge(obs.Labeled(obs.MStorageSegmentBytes, "node", id))
	nd.pstats.mSharedAttach = reg.Counter(obs.Labeled(obs.MEngineSharedAttaches, "node", id))
	nd.pstats.mSharedScans = reg.Counter(obs.Labeled(obs.MEngineSharedScans, "node", id))
	nd.pstats.mSharedDeliv = reg.Counter(obs.Labeled(obs.MEngineSharedDeliveries, "node", id))
}

// Set stores a session setting (SET name = value).
func (nd *Node) Set(name string, v sqltypes.Value) {
	nd.settingsMu.Lock()
	defer nd.settingsMu.Unlock()
	nd.settings[name] = v
}

// Setting returns a session setting and whether it was set.
func (nd *Node) Setting(name string) (sqltypes.Value, bool) {
	nd.settingsMu.RLock()
	defer nd.settingsMu.RUnlock()
	v, ok := nd.settings[name]
	return v, ok
}

// EnableSeqscan reports the node's enable_seqscan setting (default true,
// as in PostgreSQL). A query's QueryOpts.ForceIndexScan overrides it for
// that query's plan alone.
func (nd *Node) EnableSeqscan() bool {
	if v, ok := nd.Setting("enable_seqscan"); ok {
		return v.Bool()
	}
	return true
}

// Query parses and executes a SELECT at the node's current snapshot.
func (nd *Node) Query(sqlText string) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return nd.QueryStmt(st)
	case *sql.ExplainStmt:
		return nd.Explain(st.Query)
	default:
		return nil, fmt.Errorf("Query expects a SELECT; use Exec for %T", stmt)
	}
}

// QueryStmt executes a parsed SELECT at the node's current snapshot.
func (nd *Node) QueryStmt(sel *sql.SelectStmt) (*Result, error) {
	return nd.QueryStmtAt(sel, nd.watermark.Load(), QueryOpts{})
}

// QueryOpts carries per-query planner overrides. ForceIndexScan pins
// enable_seqscan=off for this query only — the per-connection SET the
// Apuama paper issues around each SVP sub-query. It is an input of the
// query's plan (its sub-queries' plans included), so concurrent sessions
// on the same node never see it. BatchSize overrides the row
// capacity of operator-internal batches (0 = default; tests shrink it
// to exercise batch boundaries). Parallelism is ignored: a query runs
// serially on the goroutine that opens it, whatever it asks for (the
// cluster's sub-queries are its only intra-query parallelism). Ctx, when
// non-nil, is checked once per scan batch, so a cancelled query stops.
type QueryOpts struct {
	ForceIndexScan bool
	BatchSize      int
	Parallelism    int
	Ctx            context.Context
}

// QueryStmtAt executes a parsed SELECT at an explicit snapshot. The
// Apuama consistency barrier captures one snapshot for all replicas and
// passes it here so sub-queries observe identical database states even
// while unblocked updates proceed.
func (nd *Node) QueryStmtAt(sel *sql.SelectStmt, snapshot int64, opts QueryOpts) (*Result, error) {
	cur, err := nd.OpenQueryStmtAt(sel, snapshot, opts)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	var rows []sqltypes.Row
	for {
		if err := cur.Next(b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			break
		}
		rows = append(rows, b.Rows...)
	}
	return &Result{Cols: cur.Cols(), Rows: rows}, nil
}

// Cursor streams one query's results batch-at-a-time. It holds the
// plan's pooled buffers from open until Close, so a cursor must always be
// closed.
type Cursor struct {
	nd     *Node
	ex     *execCtx
	root   op
	cols   []string
	closed bool
}

// OpenQueryStmtAt plans a SELECT at an explicit snapshot and returns a
// cursor positioned before the first batch. The caller must Close the
// cursor (Close is idempotent and safe after errors).
func (nd *Node) OpenQueryStmtAt(sel *sql.SelectStmt, snapshot int64, opts QueryOpts) (*Cursor, error) {
	p, err := nd.Prepare(sel, nil, opts)
	if err != nil {
		return nil, err
	}
	return p.OpenAt(snapshot, opts, nil)
}

// Cols returns the result column names.
func (c *Cursor) Cols() []string { return c.cols }

// Next resets out and fills it with the next batch of rows. An empty
// batch after return signals end of stream. Calling Next on a closed
// cursor returns an empty batch.
func (c *Cursor) Next(out *sqltypes.Batch) error {
	out.Reset()
	if c.closed {
		return nil
	}
	if err := c.root.next(c.ex, out); err != nil {
		return fmt.Errorf("execution: %w", err)
	}
	return nil
}

// Close releases the plan and flushes the node's cost meter. Idempotent.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.root.close()
	c.nd.meter.Flush()
}

// Exec executes any statement in standalone (single-node) mode: writes
// get a fresh database-wide write ID. Cluster mode instead delivers
// writes through ApplyWrite with middleware-assigned IDs.
func (nd *Node) Exec(sqlText string) (affected int64, err error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return 0, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return 0, fmt.Errorf("Exec cannot run SELECT; use Query")
	case *sql.SetStmt:
		nd.Set(st.Name, st.Value)
		return 0, nil
	case *sql.CreateTableStmt:
		_, err := nd.db.CreateTable(st)
		return 0, err
	case *sql.CreateIndexStmt:
		return 0, nd.db.CreateIndex(st)
	default:
		writeID := nd.db.NextWriteID()
		return nd.ApplyWrite(writeID, stmt)
	}
}

// ApplyWrite applies a middleware-ordered write statement. Write IDs are
// dense and must be delivered in order per node; the underlying shared
// heap makes re-application by other replicas idempotent while each node
// still pays the IO/CPU cost it would have paid with private storage.
func (nd *Node) ApplyWrite(writeID int64, stmt sql.Statement) (int64, error) {
	nd.applying.Lock()
	defer nd.applying.Unlock()
	if wm := nd.watermark.Load(); writeID <= wm {
		return 0, fmt.Errorf("write %d already applied (watermark %d)", writeID, wm)
	}
	var affected int64
	var err error
	switch st := stmt.(type) {
	case *sql.InsertStmt:
		affected, err = nd.execInsert(writeID, st)
	case *sql.DeleteStmt:
		affected, err = nd.execDelete(writeID, st)
	case *sql.UpdateStmt:
		affected, err = nd.execUpdate(writeID, st)
	default:
		return 0, fmt.Errorf("statement %T is not a write", stmt)
	}
	if err != nil {
		return 0, err
	}
	// Advance the snapshot even on partial application errors? No: writes
	// either fully apply or fail before any mutation below.
	nd.watermark.Store(writeID)
	nd.meter.Flush()
	return affected, nil
}

// execInsert applies an INSERT. The first replica to reach this write
// performs the shared-heap mutation; later replicas charge equivalent
// write IO without duplicating rows.
func (nd *Node) execInsert(writeID int64, st *sql.InsertStmt) (int64, error) {
	rel, err := nd.db.Relation(st.Table)
	if err != nil {
		return 0, err
	}
	cols := st.Columns
	if len(cols) == 0 {
		for _, c := range rel.Schema.Cols {
			cols = append(cols, c.Name)
		}
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := rel.Schema.ColIndex(c)
		if p < 0 {
			return 0, fmt.Errorf("table %s has no column %q", st.Table, c)
		}
		positions[i] = p
	}
	// Evaluate all rows before mutating anything.
	rows := make([]sqltypes.Row, len(st.Rows))
	for ri, exprs := range st.Rows {
		if len(exprs) != len(cols) {
			return 0, fmt.Errorf("INSERT row %d has %d values for %d columns", ri, len(exprs), len(cols))
		}
		row := make(sqltypes.Row, len(rel.Schema.Cols))
		for i, e := range exprs {
			v, ok := literalValue(e, nil)
			if !ok {
				return 0, fmt.Errorf("INSERT values must be constants")
			}
			cv, err := coerce(v, rel.Schema.Cols[positions[i]].Kind)
			if err != nil {
				return 0, fmt.Errorf("column %s: %w", cols[i], err)
			}
			row[positions[i]] = cv
		}
		rows[ri] = row
	}
	perform := rel.ClaimWrite(writeID)
	cfg := nd.meter.Config()
	for _, row := range rows {
		if perform {
			rid, err := rel.Insert(writeID, row)
			if err != nil {
				return 0, err
			}
			nd.touchPage(rel.PageOf(rid).ID, false)
		} else {
			// Replay on a replica: same write IO against this node's cache.
			nd.touchPage(tailPageID(rel), false)
			nd.meter.Charge(cfg.CPUTuple)
		}
		nd.meter.MaybeFlush()
	}
	return int64(len(rows)), nil
}

func tailPageID(rel *storage.Relation) int64 {
	pages := rel.PageSnapshot()
	if len(pages) == 0 {
		return 0
	}
	return pages[len(pages)-1].ID
}

// execDelete applies a DELETE: scan at the pre-write snapshot, CAS-kill
// matches. The kill is naturally idempotent across replicas.
func (nd *Node) execDelete(writeID int64, st *sql.DeleteStmt) (int64, error) {
	rids, rel, err := nd.collectTargets(writeID, st.Table, st.Where)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, rid := range rids {
		rel.MarkDeleted(rid, writeID)
		n++
	}
	return n, nil
}

// execUpdate applies an UPDATE as delete+insert of new versions. The
// replica that wins each row's kill inserts that row's new version, so
// every version appears exactly once even with replicas racing.
func (nd *Node) execUpdate(writeID int64, st *sql.UpdateStmt) (int64, error) {
	rel, err := nd.db.Relation(st.Table)
	if err != nil {
		return 0, err
	}
	set := make(map[int]bexpr, len(st.Set))
	b := &binder{node: nd, in: &planInputs{}}
	layout := make([]colID, len(rel.Schema.Cols))
	for c := range layout {
		layout[c] = colID{t: 0, c: c}
	}
	sc := &scope{tables: []tableBinding{{ref: st.Table, rel: rel}}, outputs: layout}
	for _, a := range st.Set {
		p := rel.Schema.ColIndex(a.Column)
		if p < 0 {
			return 0, fmt.Errorf("table %s has no column %q", st.Table, a.Column)
		}
		be, err := b.bind(a.Expr, sc)
		if err != nil {
			return 0, err
		}
		set[p] = be
	}
	rids, _, err := nd.collectTargets(writeID, st.Table, st.Where)
	if err != nil {
		return 0, err
	}
	ex := &execCtx{node: nd, snapshot: writeID - 1, meter: nd.meter}
	var n int64
	for _, rid := range rids {
		old := rel.Fetch(rid)
		if !rel.MarkDeleted(rid, writeID) {
			n++
			continue // another replica already applied this row's update
		}
		updated := old.Clone()
		ec := &evalCtx{ex: ex, row: old}
		for p, be := range set {
			v, err := be.eval(ec)
			if err != nil {
				return 0, err
			}
			cv, err := coerce(v, rel.Schema.Cols[p].Kind)
			if err != nil {
				return 0, err
			}
			updated[p] = cv
		}
		nrid, err := rel.Insert(writeID, updated)
		if err != nil {
			return 0, err
		}
		nd.touchPage(rel.PageOf(nrid).ID, false)
		n++
	}
	return n, nil
}

// collectTargets plans and runs a scan of the target table returning the
// RowIDs matching the WHERE clause at the pre-write snapshot.
func (nd *Node) collectTargets(writeID int64, table string, where sql.Expr) ([]storage.RowID, *storage.Relation, error) {
	rel, err := nd.db.Relation(table)
	if err != nil {
		return nil, nil, err
	}
	// Build a scan like the query planner would, but keep RowIDs: reuse
	// the SELECT machinery over a synthetic single-table query, walking
	// pages directly.
	b := &binder{node: nd, in: &planInputs{}}
	var params []bexpr
	nameScope := &scope{tables: []tableBinding{{ref: table, rel: rel}}, params: &params}
	var filters []sql.Expr
	if where != nil {
		filters = splitConjuncts(where)
		for _, f := range filters {
			if containsSubquery(f) {
				return nil, nil, fmt.Errorf("sub-queries in DML WHERE clauses are not supported")
			}
		}
	}
	layout := make([]colID, len(rel.Schema.Cols))
	for c := range layout {
		layout[c] = colID{t: 0, c: c}
	}
	scanScope := nameScope.withOutputs(layout)
	var filter bexpr
	for _, f := range filters {
		bf, err := b.bind(f, scanScope)
		if err != nil {
			return nil, nil, err
		}
		if filter == nil {
			filter = bf
		} else {
			filter = &andExpr{l: filter, r: bf}
		}
	}
	snapshot := writeID - 1
	ex := &execCtx{node: nd, snapshot: snapshot, meter: nd.meter}
	cfg := nd.meter.Config()

	var rids []storage.RowID
	best, _, _ := chooseAccessPath(rel, filters, nameScope, nil)
	if best != nil && (best.selectivity <= 0.2 || !b.seqscan()) {
		bounds, err := bindBounds(b, best, nameScope, false)
		if err != nil {
			return nil, nil, err
		}
		matches, err := bounds.collect(&evalCtx{ex: ex}, best.index, nil)
		if err != nil {
			return nil, nil, err
		}
		lastPg := int64(-1)
		for _, rid := range matches {
			p := rel.PageOf(rid)
			if p == nil {
				continue
			}
			if p.ID != lastPg {
				nd.touchPage(p.ID, best.index.Clustered)
				lastPg = p.ID
			}
			nd.meter.Charge(cfg.CPUTuple)
			if !p.Visible(rid.Slot, snapshot) {
				continue
			}
			if filter != nil {
				keep, err := truthOf(filter, &evalCtx{ex: ex, row: p.Row(rid.Slot)})
				if err != nil {
					return nil, nil, err
				}
				if keep != triTrue {
					continue
				}
			}
			rids = append(rids, rid)
		}
		return rids, rel, nil
	}
	for pi, p := range rel.PageSnapshot() {
		nd.touchPage(p.ID, true)
		n := int32(p.Count())
		for s := int32(0); s < n; s++ {
			nd.meter.Charge(cfg.CPUTuple)
			if !p.Visible(s, snapshot) {
				continue
			}
			if filter != nil {
				keep, err := truthOf(filter, &evalCtx{ex: ex, row: p.Row(s)})
				if err != nil {
					return nil, nil, err
				}
				if keep != triTrue {
					continue
				}
			}
			rids = append(rids, storage.RowID{Page: int32(pi), Slot: s})
		}
		nd.meter.MaybeFlush()
	}
	return rids, rel, nil
}

// coerce converts a literal to the column kind where SQL would
// (int→float widening, string→date parsing); NULL passes through.
func coerce(v sqltypes.Value, k sqltypes.Kind) (sqltypes.Value, error) {
	if v.IsNull() || v.K == k {
		return v, nil
	}
	switch {
	case k == sqltypes.KindFloat && v.K == sqltypes.KindInt:
		return sqltypes.NewFloat(float64(v.I)), nil
	case k == sqltypes.KindInt && v.K == sqltypes.KindFloat && v.F == float64(int64(v.F)):
		return sqltypes.NewInt(int64(v.F)), nil
	case k == sqltypes.KindDate && v.K == sqltypes.KindString:
		return sqltypes.ParseDate(v.S)
	default:
		return sqltypes.Null(), fmt.Errorf("cannot store %s value in %s column", v.K, k)
	}
}
