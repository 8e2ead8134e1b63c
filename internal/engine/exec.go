package engine

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// execCtx is the runtime context of one plan execution on one node.
type execCtx struct {
	node     *Node
	snapshot int64
	params   []sqltypes.Value

	// meter is the cost sink for this execution: the node's meter.
	meter *costmodel.Meter

	// ctx, when non-nil, is checked by every filtering scan once per batch
	// (fillFiltered), so cancelled queries stop early.
	ctx context.Context

	// batchCap overrides the capacity of operator-internal batches
	// (0 = sqltypes.DefaultBatchCapacity). The batch-size property tests
	// shrink it to 1/2/7 to flush out batch-boundary bugs.
	batchCap int

	// turnStart is when this execution's scans last started a turn on the
	// CPU (zero before the first); see yieldAfterTurn.
	turnStart time.Time
}

// turnLength is how long a scan runs before it yields the CPU.
const turnLength = time.Millisecond

// yieldAfterTurn yields the CPU once the execution has scanned for a turn.
// Every SVP sub-query runs on its claim loop's goroutine, one loop per
// node, and a cluster has more nodes than a small host has cores. Left to
// the scheduler, a CPU-bound sub-query runs until it is preempted
// (≈ 10 ms) while the loops it displaced wait, and its loop goes on to
// steal their home partitions: nodes lose the locality of their home
// blocks. On a 2-vCPU host that raised the allocation of an OLAP query by
// 3–6 % and cut the buffer-pool hit rate from 0.53 to 0.36. Turns of
// turnLength keep every loop's partitions moving; yielding after every
// batch instead cost ≈ 8 % of the CPU of an OLAP query, in switches
// between the loops' working sets.
func (ex *execCtx) yieldAfterTurn() {
	now := time.Now()
	switch {
	case ex.turnStart.IsZero():
		ex.turnStart = now
	case now.Sub(ex.turnStart) >= turnLength:
		runtime.Gosched()
		ex.turnStart = time.Now() // the turn starts when the CPU comes back
	}
}

// touch charges a page access against the node's buffer pool, billing
// any miss to this execution's meter.
func (ex *execCtx) touch(pageID int64, sequential bool) {
	ex.node.pool.AccessTo(pageID, sequential, ex.meter)
}

// op is a vectorized volcano-style operator: open, a stream of next
// calls that each fill a caller-provided batch, close.
//
// Batch contract: the caller passes a Reset (empty) batch; the operator
// appends rows until the batch is full or its input is exhausted. A
// batch left empty after next returns signals end of stream. Operators
// must never return an empty batch before end of stream (a filter that
// matched nothing keeps pulling), and must tolerate next calls after
// end of stream by returning an empty batch again.
//
// Row lifetime: appended rows reference stable storage and stay valid
// after the batch is reused — except the tuples an operator builds (a hash
// join's output, a filter's copies of the join tuples it keeps, an
// aggregate's rows), which live as long as their consumer needs them and no
// longer. The planner
// (placeTuples) gives each producer a tupleHome from what its consumer does:
// a consumer done with each batch before it pulls the next gets tuples
// valid until the producer's next next call; a keeper — a join's build
// side — hands the producer its own pooled arena and releases it at its
// own close, not the producer's (a join closes its build child right after
// building its table, which still points into those tuples); a plan or
// sub-plan root, whose rows escape to Node.QueryStmtAt, the gather or a
// sub-plan's run, keeps heap rows — or cuts them from the caller's
// RowArena, when Prepared.OpenAt is given one (rootHome).
//
// Lifecycle: whoever calls open calls close, also when open failed —
// close is idempotent, safe on an op that never opened, and releases
// whatever a partial open took. Operators that drain a child inside open
// (aggregate, sort, a join's build side, a nested loop's inner side)
// close it there on every path.
type op interface {
	open(ex *execCtx) error
	next(ex *execCtx, out *sqltypes.Batch) error
	close()
}

// childStream adapts a batch-producing child for operators that consume
// rows one at a time (filters, probes, materializing drains). The
// refill is per batch, so the per-row cost is a bounds check.
type childStream struct {
	buf *sqltypes.Batch
	pos int
}

func (cs *childStream) open(ex *execCtx) {
	if cs.buf == nil {
		if ex.batchCap > 0 {
			cs.buf = sqltypes.NewBatch(ex.batchCap)
		} else {
			cs.buf = sqltypes.GetBatch()
		}
		auditPool(1)
	}
	cs.buf.Reset()
	cs.pos = 0
}

func (cs *childStream) close() {
	if cs.buf != nil {
		sqltypes.PutBatch(cs.buf)
		cs.buf = nil
		auditPool(-1)
	}
}

// nextRow returns the next row from src, refilling the internal batch
// as needed. A nil row signals end of stream.
func (cs *childStream) nextRow(src op, ex *execCtx) (sqltypes.Row, error) {
	for cs.pos >= cs.buf.Len() {
		cs.buf.Reset()
		cs.pos = 0
		if err := src.next(ex, cs.buf); err != nil {
			return nil, err
		}
		if cs.buf.Len() == 0 {
			return nil, nil
		}
	}
	r := cs.buf.Rows[cs.pos]
	cs.pos++
	return r, nil
}

// nextRows returns up to max of the rows buffered from src, refilling the
// internal batch when it is spent. nil signals end of stream.
func (cs *childStream) nextRows(src op, ex *execCtx, max int) ([]sqltypes.Row, error) {
	for cs.pos >= cs.buf.Len() {
		cs.buf.Reset()
		cs.pos = 0
		if err := src.next(ex, cs.buf); err != nil {
			return nil, err
		}
		if cs.buf.Len() == 0 {
			return nil, nil
		}
	}
	rows := cs.buf.Rows[cs.pos:min(cs.pos+max, cs.buf.Len())]
	cs.pos += len(rows)
	return rows, nil
}

// --- scans ---

// rowSource is where a scan's candidate rows come from: heap pages in
// order, an index range's RowIDs, column segments, a shared pass. gather
// appends the next visible rows to dst until it holds limit of them or the
// source is dry, paying the source's own modelled charges (page IO,
// per-tuple CPU) for exactly the slots it visits —
// stopping short of limit only at the end of the source, so a caller that
// is filling a batch visits no slot a row-at-a-time scan would not have.
type rowSource interface {
	gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error)
}

// filterRun is a compiled predicate with the evaluation context and
// scratch of the one operator running it.
type filterRun struct {
	f  *rowFilter
	ec evalCtx
	fs filterScratch
}

// open readies the run for one execution, compiling the predicate the
// first time (a plan is opened many times when it is a correlated
// sub-query's).
func (r *filterRun) open(ex *execCtx, pred bexpr) {
	if r.f == nil {
		r.f = compileFilter(pred)
	}
	r.ec = evalCtx{ex: ex}
}

// fillFiltered is the scan loop every filtering scan shares: gather
// candidates into out's free tail, cut them down by the filter in place,
// and go again until out is full or the source is dry. Candidates never
// outnumber the free slots, so nothing is ever held back between calls.
// A cancelled context stops the scan before each gather: this is where a
// killed or LIMIT-settled query stops paying for rows. A gather that
// filled its batch leaves the scan with more to do: there, a scan that
// has had its turn yields.
func fillFiltered(ex *execCtx, src rowSource, flt *filterRun, out *sqltypes.Batch) error {
	for {
		if ex.ctx != nil {
			if err := ex.ctx.Err(); err != nil {
				return err
			}
		}
		base := out.Len()
		rows, err := src.gather(ex, out.Rows, out.Cap())
		if err != nil {
			return err
		}
		out.Rows = rows
		dry := !out.Full()
		if !dry {
			ex.yieldAfterTurn()
		}
		if flt.f != nil {
			kept, err := flt.f.apply(&flt.ec, &flt.fs, rows[base:])
			if err != nil {
				return err
			}
			out.Truncate(base + len(kept))
		}
		if dry || out.Full() {
			return nil
		}
	}
}

// heapScan walks heap pages [pi, hi) slot by slot. Per-tuple CPU is
// charged once per page, not once per slot: visited counts the slots seen
// since the last charge and is settled at every page boundary before the
// MaybeFlush there, and on the way out.
type heapScan struct {
	pages  []*storage.Page
	pi, hi int
	slot   int32
}

// begin pays for the first page; every later page is paid for when the
// one before it is finished.
func (s *heapScan) begin(ex *execCtx) {
	if s.pi < s.hi {
		ex.touch(s.pages[s.pi].ID, true)
	}
}

func (s *heapScan) gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error) {
	tupleCost := ex.meter.Config().CPUTuple
	visited := 0
	for s.pi < s.hi {
		p := s.pages[s.pi]
		n := int32(p.Count())
		for s.slot < n {
			if len(dst) >= limit {
				ex.meter.Charge(time.Duration(visited) * tupleCost)
				return dst, nil
			}
			slot := s.slot
			s.slot++
			visited++
			if p.Visible(slot, ex.snapshot) {
				dst = append(dst, p.Row(slot))
			}
		}
		s.pi++
		s.slot = 0
		ex.meter.Charge(time.Duration(visited) * tupleCost)
		visited = 0
		if s.pi < s.hi {
			ex.touch(s.pages[s.pi].ID, true)
		}
		ex.meter.MaybeFlush()
	}
	return dst, nil
}

// ridScan fetches rids[pos:] from the heap in list order, paying for a
// page each time the list moves onto one (sequential IO under a clustered
// index, whose heap accesses are physically contiguous; random otherwise).
type ridScan struct {
	pages      []*storage.Page
	rids       []storage.RowID
	pos        int
	lastPg     int64
	sequential bool
}

func (s *ridScan) gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error) {
	tupleCost := ex.meter.Config().CPUTuple
	visited := 0
	for s.pos < len(s.rids) && len(dst) < limit {
		rid := s.rids[s.pos]
		s.pos++
		if int(rid.Page) >= len(s.pages) {
			continue
		}
		p := s.pages[rid.Page]
		if p.ID != s.lastPg {
			ex.meter.Charge(time.Duration(visited) * tupleCost)
			visited = 0
			ex.touch(p.ID, s.sequential)
			s.lastPg = p.ID
			ex.meter.MaybeFlush()
		}
		visited++
		if p.Visible(rid.Slot, ex.snapshot) {
			dst = append(dst, p.Row(rid.Slot))
		}
	}
	ex.meter.Charge(time.Duration(visited) * tupleCost)
	return dst, nil
}

// seqScanOp reads every heap page in order, applying MVCC visibility and
// an optional filter, filling output batches directly from the pages.
// Every page access goes through the node's buffer pool with
// sequential-read cost.
type seqScanOp struct {
	rel    *storage.Relation
	filter bexpr // may be nil

	src heapScan
	flt filterRun
}

func (s *seqScanOp) open(ex *execCtx) error {
	pages := s.rel.PageSnapshot()
	s.src = heapScan{pages: pages, hi: len(pages)}
	s.src.begin(ex)
	s.flt.open(ex, s.filter)
	return nil
}

func (s *seqScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	return fillFiltered(ex, &s.src, &s.flt, out)
}

func (s *seqScanOp) close() {
	s.src.pages = nil
	s.flt.fs.release()
}

// --- index range scan ---

// scanBound is one bound candidate of an index scan: a literal folded at
// plan time or a runtime constant (correlation parameter).
type scanBound struct {
	e    bexpr    // a *litExpr for a folded literal
	src  sql.Expr // a runtime constant as written, for EXPLAIN
	incl bool
	eq   bool // from an equality conjunct
}

// scanBounds is an index scan's key interval on the index's leading
// column, as candidates per side (nil = open). Literal candidates were
// already intersected by the planner; whatever is left is resolved by the
// same rule (tighter) each time the scan opens.
type scanBounds struct {
	col    string
	lo, hi []scanBound
	empty  bool // proven empty at plan time
}

// resolveSide evaluates one side's candidates down to its tightest bound,
// returned in buf (a one-value row the caller owns; nil for an open side).
// A NULL candidate can satisfy no comparison, so it empties the interval.
func resolveSide(ec *evalCtx, low bool, cands []scanBound, buf sqltypes.Row) (key sqltypes.Row, incl, empty bool, err error) {
	for _, c := range cands {
		v, err := c.e.eval(ec)
		if err != nil {
			return nil, false, false, err
		}
		if v.IsNull() {
			return nil, false, true, nil
		}
		if key == nil {
			key, incl = buf, c.incl
			key[0] = v
		} else if tighter(low, key[0], incl, v, c.incl) {
			key[0], incl = v, c.incl
		}
	}
	return key, incl, false, nil
}

// collect resolves the bounds under ec and appends the RowIDs of every
// index entry inside them to rids, charging the B-tree walk to the
// execution's meter (B-tree pages are assumed cached; heap dominates, as
// on a warm PostgreSQL instance). It is the one place query and DML index
// scans turn bounds into entries; an empty interval walks nothing and
// charges nothing.
func (sb *scanBounds) collect(ec *evalCtx, index *storage.Index, rids []storage.RowID) ([]storage.RowID, error) {
	if sb.empty {
		return rids, nil
	}
	// The one-value bound rows live on the stack: a correlated scan opens
	// once per outer row.
	var keys [2]sqltypes.Value
	lo, loIncl, empty, err := resolveSide(ec, true, sb.lo, keys[0:1])
	if err != nil || empty {
		return rids, err
	}
	hi, hiIncl, empty, err := resolveSide(ec, false, sb.hi, keys[1:2])
	if err != nil || empty {
		return rids, err
	}
	if lo != nil && hi != nil && emptyInterval(lo[0], loIncl, hi[0], hiIncl) {
		return rids, nil
	}
	before := len(rids)
	index.Tree.AscendRange(lo, hi, loIncl, hiIncl, func(e storage.Entry) bool {
		rids = append(rids, e.RID)
		return true
	})
	ec.ex.meter.Charge(time.Duration(len(rids)-before) * ec.ex.meter.Config().CPUOperator)
	return rids, nil
}

// indexScanOp walks a B-tree range, fetching heap rows in index order.
// Bounds are expressions so correlated parameters work as runtime keys
// (index nested-loop sub-queries). filter holds the conjuncts the bounds
// do not already guarantee (see accessPath.implies).
type indexScanOp struct {
	rel    *storage.Relation
	index  *storage.Index
	bounds *scanBounds
	filter bexpr

	rids *[]storage.RowID // from ridPool between open and close
	src  ridScan
	flt  filterRun
}

func (s *indexScanOp) open(ex *execCtx) error {
	s.flt.open(ex, s.filter)
	if s.rids == nil {
		s.rids = ridPool.get()
	}
	var err error
	*s.rids, err = s.bounds.collect(&s.flt.ec, s.index, (*s.rids)[:0])
	s.src = ridScan{rids: *s.rids, lastPg: -1, sequential: s.index.Clustered}
	// Pages are append-only and an entry is indexed only after its page is
	// in the list, so a snapshot taken now resolves every collected RID
	// without a relation-lock round trip per row.
	if len(*s.rids) > 0 {
		s.src.pages = s.rel.PageSnapshot()
	}
	return err
}

func (s *indexScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	return fillFiltered(ex, &s.src, &s.flt, out)
}

func (s *indexScanOp) close() {
	ridPool.put(s.rids)
	s.rids, s.src = nil, ridScan{}
	s.flt.fs.release()
}

// bufPool recycles []T scratch buffers between queries. A buffer travels
// as *[]T, the same pointer out and back, so in steady state neither get
// nor put allocates (boxing a slice header into a sync.Pool would).
type bufPool[T any] struct{ pool sync.Pool }

// get returns an empty buffer with whatever capacity its last user grew.
func (bp *bufPool[T]) get() *[]T {
	auditPool(1)
	if b, ok := bp.pool.Get().(*[]T); ok {
		return b
	}
	return new([]T)
}

// put takes back a buffer nothing reads any more (nil is a no-op).
func (bp *bufPool[T]) put(b *[]T) {
	if b != nil {
		auditPool(-1)
		*b = (*b)[:0]
		bp.pool.Put(b)
	}
}

// ridPool holds the RID lists index scans collect — a sub-query's range is
// thousands of entries — and rowBufPool row-header buffers, such as a hash
// join's build rows (re-growing each by append for every sub-query was
// half of what an OLAP query allocated outside its joins).
var (
	ridPool    bufPool[storage.RowID]
	rowBufPool bufPool[sqltypes.Row]
)

// poolBalance, set only by tests (export_test.go), counts the buffers the
// engine's pools and child streams have handed out and not taken back.
var poolBalance atomic.Pointer[atomic.Int64]

func auditPool(d int64) {
	if n := poolBalance.Load(); n != nil {
		n.Add(d)
	}
}

// --- arenas ---

// arena is pooled memory cut in order, a chunk at a time, by whoever the
// planner pointed at it: join tuples (tupleArena), and an aggregation's
// groups, their keys and states and its output rows. Its owner rewinds it
// when everything cut so far is dead and releases it at close.
type arena[T any] struct {
	chunks []*[]T // from the kind's pool, in cut order
	next   int    // chunks[:next] hold what was cut since the last rewind
	free   []T    // the uncut tail of chunks[next-1]
}

// chunkKind is what an arena of T is cut from: the pool of its chunks, a
// chunk's length (a cut never spans two chunks) and how the retention guard
// poisons memory that is dead.
type chunkKind[T any] struct {
	pool   bufPool[T]
	size   int
	poison func([]T)
}

// cut returns the next n elements, as they were left: the caller writes
// every one.
func (a *arena[T]) cut(k *chunkKind[T], n int) []T {
	if len(a.free) < n {
		if a.next == len(a.chunks) {
			a.chunks = append(a.chunks, k.pool.get())
		}
		a.free = sized(a.chunks[a.next], max(k.size, n))
		a.next++
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// rewind makes every chunk free for cutting again: what was cut so far is
// dead. Under the retention guard it is poisoned first.
func (a *arena[T]) rewind(k *chunkKind[T]) {
	if joinTupleTest.poison.Load() {
		for _, c := range a.chunks[:a.next] {
			k.poison(*c)
		}
	}
	a.next, a.free = 0, nil
}

// release hands every chunk back to the pool, cleared so it pins no string
// — or, under the retention guard, poisoned, so what is read after its
// owner let go of it is garbage.
func (a *arena[T]) release(k *chunkKind[T]) {
	for _, c := range a.chunks {
		if joinTupleTest.poison.Load() {
			k.poison(*c)
		} else {
			clear(*c)
		}
		k.pool.put(c)
	}
	clear(a.chunks)
	a.chunks, a.next, a.free = a.chunks[:0], 0, nil
}

// valueChunks are tuple arenas' chunks, joinSlabRows tuples of eight
// columns each.
var valueChunks = chunkKind[sqltypes.Value]{size: joinSlabRows * 8, poison: poisonValues}

func poisonValues(vals []sqltypes.Value) {
	for i := range vals {
		vals[i] = poisonValue
	}
}

// tupleArena is the arena tuples are cut from: a join's build side cuts
// its tuples from the join's arena, a join cuts its generic table's build
// keys from it too, a join whose consumer reads a batch at a time cuts its
// output from its own arena and rewinds it at every next.
type tupleArena struct{ arena[sqltypes.Value] }

func (a *tupleArena) cut(w int) sqltypes.Row { return a.arena.cut(&valueChunks, w) }
func (a *tupleArena) rewind()                { a.arena.rewind(&valueChunks) }
func (a *tupleArena) release()               { a.arena.release(&valueChunks) }

// RowArena is pooled memory a query's result rows are cut from, in small
// chunks (smallValueChunks, like an aggregate's: most partitions return
// few rows). The caller of Prepared.OpenAt hands one in; the plan's root
// cuts every row it emits from it, so the rows outlive the cursor and the
// plan's next open. Its owner releases it once nothing reads those rows
// any more. A nil arena means heap rows. An arena takes no chunk until its
// first row.
type RowArena struct{ a arena[sqltypes.Value] }

var rowArenas = sync.Pool{New: func() any { return new(RowArena) }}

// NewRowArena returns an empty arena from the pool.
func NewRowArena() *RowArena { return rowArenas.Get().(*RowArena) }

func (r *RowArena) cut(w int) sqltypes.Row { return r.a.cut(&smallValueChunks, w) }
func (r *RowArena) release()               { r.a.release(&smallValueChunks) }

// Release hands the arena's chunks and the arena back to their pools:
// every row cut from it is dead. Nil is a no-op; an arena is released once.
func (r *RowArena) Release() {
	if r == nil {
		return
	}
	r.release()
	rowArenas.Put(r)
}

// tupleHome is where an operator that builds tuples cuts them, set by the
// planner (placeTuples) from what the operator's consumer does with them.
// The zero value is a slab: joinSlabRows tuples per allocation, never
// reused, for tuples that escape the plan.
type tupleHome struct {
	keeper   *tupleArena // the consumer keeps the tuples until its close: its arena
	perBatch bool        // the consumer is done with a batch before it pulls the next
	batch    tupleArena  // perBatch: the producer's own, rewound at every next
	slab     []sqltypes.Value
}

// begin starts a next call: under a per-batch consumer the tuples of the
// previous call are dead.
func (h *tupleHome) begin() {
	if h.perBatch {
		h.batch.rewind()
	}
}

func (h *tupleHome) cut(w int) sqltypes.Row {
	switch {
	case h.keeper != nil:
		return h.keeper.cut(w)
	case h.perBatch:
		return h.batch.cut(w)
	}
	if len(h.slab) < w {
		h.slab = make([]sqltypes.Value, w*joinSlabRows)
	}
	row := h.slab[:w:w]
	h.slab = h.slab[w:]
	return row
}

// reserve gives a slab home room for n more values in one allocation, for
// a producer that knows how many it will cut; an arena needs nothing.
func (h *tupleHome) reserve(n int) {
	if h.keeper == nil && !h.perBatch && len(h.slab) < n {
		h.slab = make([]sqltypes.Value, n)
	}
}

// close drops what the producer owns: its batch arena goes back to the
// pool, its slab stays with the rows that escaped. A keeper's arena is the
// keeper's to release.
func (h *tupleHome) close() {
	h.batch.release()
	h.slab = nil
}

// --- filter ---

// filterOp filters its child's output. Over a join (copies, set by the
// planner) it takes the join's tuples a batch at a time and copies the
// survivors of each child batch into its own home before it pulls the
// next: so what it holds — in its batch arena, or a keeper's — is what it
// keeps, not every tuple it was offered.
type filterOp struct {
	child op
	cond  bexpr

	copies bool
	out    tupleHome

	cs  childStream
	flt filterRun
}

func (f *filterOp) open(ex *execCtx) error {
	f.flt.open(ex, f.cond)
	f.cs.open(ex)
	return f.child.open(ex)
}

// next filters one child batch piece at a time, never more candidates than
// out has free slots: the batches it fills, the child refills it makes and
// the rows each conjunct sees in row-major order are those of gathering
// every free slot before filtering (fillFiltered).
func (f *filterOp) next(ex *execCtx, out *sqltypes.Batch) error {
	f.out.begin()
	for !out.Full() {
		rows, err := f.cs.nextRows(f.child, ex, out.Cap()-out.Len())
		if err != nil || rows == nil {
			return err
		}
		base := out.Len()
		out.Rows = append(out.Rows, rows...)
		kept, err := f.flt.f.apply(&f.flt.ec, &f.flt.fs, out.Rows[base:])
		if err != nil {
			return err
		}
		out.Truncate(base + len(kept))
		if f.copies {
			for i, row := range kept {
				c := f.out.cut(len(row))
				copy(c, row)
				out.Rows[base+i] = c
			}
		}
	}
	return nil
}

func (f *filterOp) close() {
	f.child.close()
	f.cs.close()
	f.flt.fs.release()
	f.out.close()
}

// --- hash join ---

// hashJoinOp equi-joins probe (streamed) against build (materialized into
// a hash table). An output tuple carries only the input columns something
// above the join reads: the probeSel positions of the probe row followed
// by the buildSel positions of the build row (the planner's narrowed
// layout; see neededCols). Only inner joins exist in the dialect.
//
// The table has two forms. A join whose build keys are all integers (every
// TPC-H key) gets intKeys: int64 -> build-row ordinals, probed by reading
// the probe row's key columns in place. Anything else — a float or string
// build key — gets the generic table of evaluated key rows bucketed by
// HashRow. Both answer alike (a probe matches the build rows whose key
// RowsEqual says it equals, in build order); the generic one is the
// definition.
type hashJoinOp struct {
	probe, build         op
	probeKeys, buildKeys []bexpr
	probeSel, buildSel   []int
	inCols               int // probe + build input width, for EXPLAIN

	// out is where the output tuples are cut (see tupleHome and
	// placeTuples); kept is the arena this join keeps its build side in:
	// the tuples a join below cuts for it and the generic table's keys,
	// released at this join's close.
	out  tupleHome
	kept tupleArena

	ints      *intKeys
	buildRows *[]sqltypes.Row // intKeys' ordinals index it; from rowBufPool
	keyCols   [2][]int        // probe and build key positions, when every key is a plain column
	probeInts []int64         // the current probe row's keys
	chain     int32           // next build ordinal to try for the current probe row, -1 none

	table    map[uint64][]sqltypes.Row // hash -> build rows
	keysOf   map[uint64][]sqltypes.Row // hash -> build keys, parallel to table
	matches  []sqltypes.Row            // matches for current probe row
	mpos     int                       // next match to emit
	probeKey sqltypes.Row              // scratch: a probe key is dead after its bucket lookup

	current sqltypes.Row
	cs      childStream
	ec      evalCtx
}

// joinSlabRows is how many tuples share one slab allocation.
const joinSlabRows = 256

// joinTupleTest is a test-only switch, set from export_test.go: with
// poison on, an arena overwrites its tuples when it rewinds (a per-batch
// producer's next) or releases (its owner's close), so a consumer that read
// one later gets garbage; with stable on, the planner places no tuple —
// every join cuts slab tuples, no filter copies — the reference poisoned
// runs are compared with.
var joinTupleTest struct{ poison, stable atomic.Bool }

var poisonValue = sqltypes.NewString("\x00poison: a join tuple was read after its memory was let go")

func (j *hashJoinOp) open(ex *execCtx) error {
	err := j.build.open(ex)
	if err == nil {
		err = j.buildTable(ex)
	}
	j.build.close()
	if err == nil {
		j.cs.open(ex)
		err = j.probe.open(ex)
	}
	if err != nil {
		j.close() // a failed open keeps neither the table nor the probe's buffers
	}
	return err
}

// buildTable drains the build input into the join table.
func (j *hashJoinOp) buildTable(ex *execCtx) error {
	j.ec = evalCtx{ex: ex}
	j.matches, j.mpos = j.matches[:0], 0
	j.current, j.chain = nil, -1
	rows := rowBufPool.get()
	var bs childStream
	bs.open(ex)
	defer bs.close()
	for {
		batch, err := bs.nextRows(j.build, ex, bs.buf.Cap())
		if err != nil {
			clear(*rows)
			rowBufPool.put(rows)
			return err
		}
		if batch == nil {
			break
		}
		*rows = append(*rows, batch...)
	}
	opCost := ex.meter.Config().CPUOperator
	if keyed, ok := j.buildIntKeys(*rows); ok {
		j.ints, j.buildRows = keyed, rows
		if j.probeInts == nil {
			j.probeInts = make([]int64, len(j.probeKeys))
		}
		ex.meter.Charge(time.Duration(keyed.n) * opCost)
		return nil
	}
	err := j.buildGeneric(*rows, opCost)
	clear(*rows)
	rowBufPool.put(rows)
	return err
}

// buildGeneric fills the generic table: one evaluated key row per build
// row, retained beside it in the join's arena. NULL keys never join.
func (j *hashJoinOp) buildGeneric(rows []sqltypes.Row, opCost time.Duration) error {
	j.table = map[uint64][]sqltypes.Row{}
	j.keysOf = map[uint64][]sqltypes.Row{}
	for _, row := range rows {
		key := j.kept.cut(len(j.buildKeys))
		null, err := evalKeys(&j.ec, j.buildKeys, row, key)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		h := sqltypes.HashRow(key)
		j.table[h] = append(j.table[h], row)
		j.keysOf[h] = append(j.keysOf[h], key)
		j.ec.ex.meter.Charge(opCost)
	}
	j.probeKey = j.kept.cut(len(j.probeKeys))
	return nil
}

// evalKeys evaluates the join keys of row into out (len(keys) wide) and
// reports whether any is NULL.
func evalKeys(ec *evalCtx, keys []bexpr, row, out sqltypes.Row) (null bool, err error) {
	ec.row = row
	for i, k := range keys {
		v, err := k.eval(ec)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		out[i] = v
	}
	return false, nil
}

// intKeys is the integer-key join table: open addressing from a join
// key (for several key columns, a mix of them) to the first build ordinal
// carrying it, and per ordinal the next one under the same slot key,
// ascending — so a probe meets its matches in build order. A chain under
// a mixed key can hold other key tuples; holds tells them apart.
type intKeys struct {
	cols  []int // key column positions in a build row
	slots []intSlot
	next  []int32
	shift uint
	n     int // build rows in the table (those without a NULL key)

	slotBuf *[]intSlot // slots and next are cut from pooled buffers
	nextBuf *[]int32
}

var slotPool bufPool[intSlot]

// release hands the table's memory back; nil is a no-op.
func (t *intKeys) release() {
	if t != nil {
		slotPool.put(t.slotBuf)
		selPool.put(t.nextBuf)
	}
}

// sized returns buf resized to n elements, reusing its capacity.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

type intSlot struct {
	key   int64
	first int32 // build ordinal + 1; 0 marks the slot empty
}

// exactInt bounds the keys the integer table takes: below 2^53 in
// magnitude an int64 and the float64 nearest it are the same number, so
// "the float probe key is integral and equals the build key" is exactly
// what Compare's float-space comparison of the two says.
const exactInt = 1 << 53

// keyCols returns the positions of keys (a join's, a GROUP BY's) that are
// all plain columns.
func keyCols(keys []bexpr) ([]int, bool) {
	cols := make([]int, len(keys))
	for i, k := range keys {
		c, ok := k.(*colExpr)
		if !ok {
			return nil, false
		}
		cols[i] = c.pos
	}
	return cols, true
}

// buildIntKeys builds the integer table over the materialized build rows,
// or reports false if a join key is not a plain column or some non-NULL
// build key is not an exact integer.
func (j *hashJoinOp) buildIntKeys(rows []sqltypes.Row) (*intKeys, bool) {
	if j.keyCols[0] == nil {
		probe, pok := keyCols(j.probeKeys)
		build, bok := keyCols(j.buildKeys)
		if !pok || !bok {
			return nil, false
		}
		j.keyCols = [2][]int{probe, build}
	}
	cols := j.keyCols[1]
	size, shift := 16, uint(60)
	for size < 2*len(rows) {
		size, shift = size<<1, shift-1
	}
	t := &intKeys{cols: cols, shift: shift, slotBuf: slotPool.get(), nextBuf: selPool.get()}
	t.slots, t.next = sized(t.slotBuf, size), sized(t.nextBuf, len(rows))
	clear(t.slots)
	// Back to front, each row going to the head of its slot's chain: the
	// chains come out ascending.
rows:
	for ord := len(rows) - 1; ord >= 0; ord-- {
		var key int64
		for _, c := range cols {
			v := &rows[ord][c]
			if v.K == sqltypes.KindNull {
				continue rows // NULL keys never join
			}
			if !intBacked(v.K) || v.I <= -exactInt || v.I >= exactInt {
				t.release()
				return nil, false
			}
			key = mixKey(key, v.I)
		}
		s := t.slot(key)
		t.next[ord] = s.first - 1
		s.key, s.first = key, int32(ord)+1
		t.n++
	}
	return t, true
}

// mixKey folds one more key column into a slot key. A single column's key
// is itself.
func mixKey(key, k int64) int64 { return key*-0x61c8864680b583eb + k }

// slot returns key's slot: the one holding it, or the empty one where it
// belongs (linear probing; the table is at most half full).
func (t *intKeys) slot(key int64) *intSlot {
	i := (uint64(key) * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.slots[i]
		if s.first == 0 || s.key == key {
			return s
		}
		if i++; int(i) == len(t.slots) {
			i = 0
		}
	}
}

// probe reads the probe row's key columns into keys as integers and
// returns the head of the chain to search, -1 if the row can match
// nothing. An int-backed value is its integer; a float is one if it is
// integral (as RowsEqual's float-space Compare has it; -0 is 0); NULL
// never joins. The remaining kinds answer as the generic table does: a
// string equals no number, and an interval — which hashes as zero and
// compares by its count — only ever finds key 0.
func (t *intKeys) probe(row sqltypes.Row, cols []int, keys []int64) int32 {
	var key int64
	for i, c := range cols {
		v := &row[c]
		var k int64
		switch {
		case intBacked(v.K):
			k = v.I
		case v.K == sqltypes.KindFloat:
			if !(v.F > -exactInt && v.F < exactInt) {
				return -1
			}
			if k = int64(v.F); float64(k) != v.F {
				return -1
			}
		case v.K == sqltypes.KindInterval && v.I == 0:
		default:
			return -1
		}
		keys[i] = k
		key = mixKey(key, k)
	}
	return t.slot(key).first - 1
}

// holds reports whether the build row carries exactly these keys.
func (t *intKeys) holds(build sqltypes.Row, keys []int64) bool {
	for i, c := range t.cols {
		if build[c].I != keys[i] {
			return false
		}
	}
	return true
}

func (j *hashJoinOp) next(ex *execCtx, out *sqltypes.Batch) error {
	// A probe row costs one operator step; the rows pulled since the last
	// return are settled together.
	pulled := 0
	defer func() { ex.meter.Charge(time.Duration(pulled) * ex.meter.Config().CPUOperator) }()
	j.out.begin()
	if t := j.ints; t != nil {
		build := *j.buildRows
		for !out.Full() {
			if ord := j.chain; ord >= 0 {
				j.chain = t.next[ord]
				if t.holds(build[ord], j.probeInts) {
					out.Append(j.joined(j.current, build[ord]))
				}
				continue
			}
			row, err := j.cs.nextRow(j.probe, ex)
			if err != nil || row == nil {
				return err
			}
			pulled++
			j.current, j.chain = row, t.probe(row, j.keyCols[0], j.probeInts)
		}
		return nil
	}
	for !out.Full() {
		if j.mpos < len(j.matches) {
			out.Append(j.joined(j.current, j.matches[j.mpos]))
			j.mpos++
			continue
		}
		row, err := j.cs.nextRow(j.probe, ex)
		if err != nil || row == nil {
			return err
		}
		pulled++
		key := j.probeKey
		null, err := evalKeys(&j.ec, j.probeKeys, row, key)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		h := sqltypes.HashRow(key)
		bucket := j.table[h]
		if len(bucket) == 0 {
			continue
		}
		bkeys := j.keysOf[h]
		j.current = row
		j.matches, j.mpos = j.matches[:0], 0
		for i, b := range bucket {
			if sqltypes.RowsEqual(bkeys[i], key) {
				j.matches = append(j.matches, b)
			}
		}
	}
	return nil
}

// joined cuts the next output tuple from the join's home and fills it with
// the selected columns of a probe row and a build row.
func (j *hashJoinOp) joined(p, b sqltypes.Row) sqltypes.Row {
	row := j.out.cut(len(j.probeSel) + len(j.buildSel))
	for i, pos := range j.probeSel {
		row[i] = p[pos]
	}
	for i, pos := range j.buildSel {
		row[len(j.probeSel)+i] = b[pos]
	}
	return row
}

func (j *hashJoinOp) close() {
	j.probe.close()
	j.cs.close()
	if j.buildRows != nil {
		clear(*j.buildRows)
		rowBufPool.put(j.buildRows)
	}
	j.ints.release()
	j.ints, j.buildRows = nil, nil
	j.table = nil
	j.keysOf = nil
	j.probeKey = nil
	j.kept.release() // the table that pointed into it is gone
	j.out.close()
}

// --- nested-loop join (cartesian with optional condition) ---

type nestedLoopOp struct {
	outer, inner op
	cond         bexpr // may be nil (pure cross product)

	innerRows []sqltypes.Row
	cur       sqltypes.Row
	ii        int
	scratch   sqltypes.Row
	cs        childStream
	ec        evalCtx
}

func (n *nestedLoopOp) open(ex *execCtx) error {
	err := n.inner.open(ex)
	defer n.inner.close()
	if err != nil {
		return err
	}
	n.ec = evalCtx{ex: ex}
	n.innerRows = n.innerRows[:0]
	var is childStream
	is.open(ex)
	defer is.close()
	for {
		row, err := is.nextRow(n.inner, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		n.innerRows = append(n.innerRows, row)
	}
	n.cur = nil
	n.ii = 0
	n.cs.open(ex)
	return n.outer.open(ex)
}

func (n *nestedLoopOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		if n.cur == nil {
			row, err := n.cs.nextRow(n.outer, ex)
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			n.cur = row
			n.ii = 0
		}
		for n.ii < len(n.innerRows) && !out.Full() {
			b := n.innerRows[n.ii]
			n.ii++
			n.scratch = append(append(n.scratch[:0], n.cur...), b...)
			if n.cond != nil {
				n.ec.row = n.scratch
				keep, err := truthOf(n.cond, &n.ec)
				if err != nil {
					return err
				}
				if keep != triTrue {
					continue
				}
			}
			out.Append(n.scratch.Clone())
		}
		if n.ii >= len(n.innerRows) {
			n.cur = nil
		}
	}
	return nil
}

func (n *nestedLoopOp) close() {
	n.outer.close()
	n.cs.close()
	n.innerRows = nil
	n.scratch = nil
}

// --- projection ---

type projectOp struct {
	child op
	items []bexpr

	// out is the caller's arena when this builds the plan's result rows
	// (rootHome, Prepared.OpenAt); nil: every row is its own heap
	// allocation. A pointer, not a tupleHome: a point lookup plans a
	// projection per partition, and the wider struct showed in its
	// allocation.
	out *RowArena

	cs childStream
	ec evalCtx
}

func (p *projectOp) open(ex *execCtx) error {
	p.ec = evalCtx{ex: ex}
	p.cs.open(ex)
	return p.child.open(ex)
}

func (p *projectOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := p.cs.nextRow(p.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		p.ec.row = row
		projected := newRow(p.out, len(p.items))
		for i, it := range p.items {
			v, err := it.eval(&p.ec)
			if err != nil {
				return err
			}
			projected[i] = v
		}
		out.Append(projected)
	}
	return nil
}

func (p *projectOp) close() {
	p.child.close()
	p.cs.close()
}

// newRow is a result row of width w: cut from the caller's arena a when
// the plan was opened with one, else its own heap allocation.
func newRow(a *RowArena, w int) sqltypes.Row {
	if a != nil {
		return a.cut(w)
	}
	return make(sqltypes.Row, w)
}

// --- aggregation ---

// aggFn is an aggregate function, resolved from its name when the aggDef
// is built so the per-row accumulate switches on a byte.
type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggFnOf maps a (lower-case) aggregate name — sql.AggregateFuncs is the
// set — to its code.
func aggFnOf(name string) aggFn {
	switch name {
	case "sum":
		return aggSum
	case "avg":
		return aggAvg
	case "min":
		return aggMin
	case "max":
		return aggMax
	}
	return aggCount
}

// aggDef is one aggregate computation; a nil arg means count(*).
type aggDef struct {
	fn       aggFn
	arg      bexpr
	distinct bool
}

// aggState accumulates one aggregate for one group. Its zero value is the
// empty state.
type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	ext     sqltypes.Value              // the extreme so far: MIN's least, MAX's greatest
	seen    map[uint64][]sqltypes.Value // for DISTINCT
}

func (st *aggState) add(def *aggDef, v sqltypes.Value) {
	if def.arg != nil && v.IsNull() {
		return // aggregates skip NULL inputs
	}
	if def.distinct {
		if st.seen == nil {
			st.seen = map[uint64][]sqltypes.Value{}
		}
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if sqltypes.Compare(prev, v) == 0 {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch def.fn {
	case aggSum, aggAvg:
		if v.K == sqltypes.KindFloat {
			st.isFloat = true
			st.sumF += v.F
		} else {
			st.sumI += v.I
		}
	case aggMin, aggMax:
		st.extreme(def.fn, v)
	}
}

// extreme folds a non-NULL value into MIN's or MAX's extreme.
func (st *aggState) extreme(fn aggFn, v sqltypes.Value) {
	if st.ext.IsNull() {
		st.ext = v
		return
	}
	if c := sqltypes.Compare(v, st.ext); fn == aggMin && c < 0 || fn == aggMax && c > 0 {
		st.ext = v
	}
}

func (st *aggState) result(def *aggDef) sqltypes.Value {
	switch def.fn {
	case aggCount:
		return sqltypes.NewInt(st.count)
	case aggSum:
		if st.count == 0 {
			return sqltypes.Null()
		}
		if st.isFloat {
			return sqltypes.NewFloat(st.sumF + float64(st.sumI))
		}
		return sqltypes.NewInt(st.sumI)
	case aggAvg:
		if st.count == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat((st.sumF + float64(st.sumI)) / float64(st.count))
	case aggMin, aggMax:
		return st.ext
	}
	return sqltypes.Null()
}

// aggTable is aggregation state: the groups in first-appearance order,
// which is the output order. While the groups are few they are matched
// directly (Q1 has four); past directGroups they are indexed by key hash.
// An aggOp fills one.
//
// Nothing in it is allocated per group: groups, their keys and their states
// are cut from pooled chunks. reset empties the table for another run and
// keeps what it grew — the arenas rewind, order keeps its capacity, heads
// its buckets — and release hands the chunks back, so a re-opened
// sub-query and a freshly planned composition both aggregate in recycled
// memory.
type aggTable struct {
	order   []*aggGroup
	heads   map[uint64]int32 // key hash -> first group of its chain, while indexed
	indexed bool             // past directGroups: groups are found through heads

	groups arena[aggGroup]
	states arena[aggState]
	vals   arena[sqltypes.Value] // group keys, and the rows an aggregate renders from them
}

// directGroups is how many groups a table matches by comparing keys
// before it builds the hash index.
const directGroups = 8

type aggGroup struct {
	keys   sqltypes.Row
	states []aggState
	next   int32 // next group with the same key hash, -1 at the end of the chain
}

// The chunks of aggregation tables, 7–10 KB each: most tables hold a
// handful of groups, and a chunk a table holds is pooled memory no other
// table can use. Result rows (RowArena) are cut from the small value
// chunks too, for the same reason: most partitions return few rows. A
// poisoned group or state reads as garbage: a group with no keys or
// states, a state whose count, sums and extreme are nonsense.
var (
	groupChunks = chunkKind[aggGroup]{size: 128, poison: func(gs []aggGroup) {
		for i := range gs {
			gs[i] = aggGroup{next: -1}
		}
	}}
	stateChunks = chunkKind[aggState]{size: 128, poison: func(ss []aggState) {
		for i := range ss {
			ss[i] = aggState{count: -1 << 40, sumI: -1 << 40, sumF: math.NaN(), isFloat: true, ext: poisonValue}
		}
	}}
	smallValueChunks = chunkKind[sqltypes.Value]{size: 256, poison: poisonValues}
)

// reset empties the table for another run, keeping what it grew.
func (t *aggTable) reset() {
	clear(t.order) // pin no group of a chunk once it is back in its pool
	t.order = t.order[:0]
	clear(t.heads)
	t.indexed = false
	t.groups.rewind(&groupChunks)
	t.states.rewind(&stateChunks)
	t.vals.rewind(&smallValueChunks)
}

// release empties the table and hands its chunks back to their pools.
func (t *aggTable) release() {
	t.reset()
	t.groups.release(&groupChunks)
	t.states.release(&stateChunks)
	t.vals.release(&smallValueChunks)
}

// newGroup cuts a group from the table's arenas: a copy of keys (callers
// pass scratch) and nAggs empty states.
func (t *aggTable) newGroup(keys sqltypes.Row, nAggs int) *aggGroup {
	g := &t.groups.cut(&groupChunks, 1)[0]
	g.keys = t.vals.cut(&smallValueChunks, len(keys))
	copy(g.keys, keys)
	g.states = t.states.cut(&stateChunks, nAggs)
	clear(g.states) // a rewound chunk holds the last run's states
	return g
}

// find returns the ordinal of the group with these keys, or -1, and the
// keys' hash when the table is indexed by it.
func (t *aggTable) find(keys sqltypes.Row) (int32, uint64) {
	if !t.indexed {
		for gi, g := range t.order {
			if sameGroupKeys(g.keys, keys) {
				return int32(gi), 0
			}
		}
		return -1, 0
	}
	h := sqltypes.HashRow(keys)
	if gi, ok := t.heads[h]; ok {
		for ; gi >= 0; gi = t.order[gi].next {
			if sameGroupKeys(t.order[gi].keys, keys) {
				return gi, h
			}
		}
	}
	return -1, h
}

// insert appends g, a group find did not find; h is the hash find
// returned. Chains keep insertion order, so a key that matches more than
// one group (Compare is not transitive across ints and floats beyond
// 2^53) meets the same one first either way the table is searched.
func (t *aggTable) insert(g *aggGroup, h uint64) int32 {
	gi := int32(len(t.order))
	g.next = -1
	t.order = append(t.order, g)
	switch {
	case t.indexed:
		t.link(gi, h)
	case len(t.order) > directGroups:
		if t.heads == nil {
			t.heads = make(map[uint64]int32, 4*directGroups)
		}
		t.indexed = true
		for i, g := range t.order {
			t.link(int32(i), sqltypes.HashRow(g.keys))
		}
	}
	return gi
}

func (t *aggTable) link(gi int32, h uint64) {
	head, ok := t.heads[h]
	if !ok {
		t.heads[h] = gi
		return
	}
	for t.order[head].next >= 0 {
		head = t.order[head].next
	}
	t.order[head].next = gi
}

// lookup returns the ordinal of the group with these keys, starting it
// if it is new.
func (t *aggTable) lookup(keys sqltypes.Row, nAggs int) int32 {
	gi, h := t.find(keys)
	if gi < 0 {
		gi = t.insert(t.newGroup(keys, nAggs), h)
	}
	return gi
}

func sameGroupKeys(a, b sqltypes.Row) bool {
	for i := range a {
		if !sameGroupValue(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// addRow folds the tuple in ec.row into the table: the general path, for
// aggregations whose group keys are expressions and for batches the
// kernels do not cover. Group keys are evaluated into the caller's scratch
// keybuf and only copied when they start a new group. The row's
// aggregates are charged in one call — opCost each, also for the ones
// evaluated before an argument fails.
func (t *aggTable) addRow(ec *evalCtx, groups []bexpr, aggs []*aggDef, keybuf sqltypes.Row, opCost time.Duration) error {
	for i, g := range groups {
		v, err := g.eval(ec)
		if err != nil {
			return err
		}
		keybuf[i] = v
	}
	grp := t.order[t.lookup(keybuf, len(aggs))]
	for i, def := range aggs {
		var v sqltypes.Value
		if def.arg != nil {
			var err error
			if v, err = def.arg.eval(ec); err != nil {
				ec.ex.meter.Charge(time.Duration(i) * opCost)
				return err
			}
		}
		grp.states[i].add(def, v)
	}
	ec.ex.meter.Charge(time.Duration(len(aggs)) * opCost)
	return nil
}

// aggOut is an aggregate's result: the table it fills at open and the
// rows it renders from it, streamed by next. Where the rows live follows
// out, the home the planner gave the aggregate (placeTuples). Under a
// consumer that copies what it reads — a projection, directly or through
// HAVING — they are cut from the table's value arena beside the group keys,
// so they stay valid until the aggregate's next open or close; under a plan
// or sub-plan root they are heap slabs, because they escape.
type aggOut struct {
	table aggTable
	out   tupleHome
	rows  []sqltypes.Row
	pos   int
}

// begin readies the output for a run: the last run's groups and rows are
// dead.
func (o *aggOut) begin() {
	o.table.reset()
	clear(o.rows)
	o.rows, o.pos = o.rows[:0], 0
}

// render cuts the table's groups in order as output rows, group keys
// followed by aggregate results in definition order. With no GROUP BY
// there is exactly one row even over no input (SQL scalar-aggregate
// semantics).
func (o *aggOut) render(nGroups int, aggs []*aggDef) {
	t := &o.table
	if nGroups == 0 && len(t.order) == 0 {
		t.lookup(nil, len(aggs))
	}
	o.rows = slices.Grow(o.rows, len(t.order))
	if len(t.order) > 0 {
		o.out.reserve(len(t.order) * (len(t.order[0].keys) + len(aggs)))
	}
	for _, g := range t.order {
		var row sqltypes.Row
		if w := len(g.keys) + len(aggs); o.out.perBatch {
			row = t.vals.cut(&smallValueChunks, w)
		} else {
			row = o.out.cut(w)
		}
		copy(row, g.keys)
		for i, def := range aggs {
			row[len(g.keys)+i] = g.states[i].result(def)
		}
		o.rows = append(o.rows, row)
	}
}

func (o *aggOut) next(_ *execCtx, out *sqltypes.Batch) error {
	for o.pos < len(o.rows) && !out.Full() {
		out.Append(o.rows[o.pos])
		o.pos++
	}
	return nil
}

// close hands the table's chunks back: the arena rows are dead.
func (o *aggOut) close() {
	o.table.release()
	o.out.close()
	clear(o.rows)
	o.rows, o.pos = o.rows[:0], 0
}

// aggOp computes grouped aggregates over its child's whole output, a
// batch at a time.
type aggOp struct {
	child  op
	groups []bexpr
	aggs   []*aggDef

	ak *aggKernels // compiled at the first open
	aggOut
}

func (a *aggOp) open(ex *execCtx) error {
	a.begin()
	err := a.child.open(ex)
	if err == nil {
		err = a.fill(ex)
	}
	a.child.close()
	if err != nil {
		a.close() // a failed open keeps no chunk
		return err
	}
	a.render(len(a.groups), a.aggs)
	return nil
}

// fill drains the child into the table.
func (a *aggOp) fill(ex *execCtx) error {
	if a.ak == nil {
		a.ak = compileAgg(a.groups, a.aggs)
	}
	opCost := ex.meter.Config().CPUOperator
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	sc := getAggScratch(len(a.groups))
	defer sc.release()
	for {
		rows, err := cs.nextRows(a.child, ex, cs.buf.Cap())
		if err != nil || rows == nil {
			return err
		}
		if err := a.table.addBatch(&ec, a.ak, a.groups, a.aggs, rows, sc, opCost); err != nil {
			return err
		}
		ex.meter.MaybeFlush()
	}
}

// --- sort ---

type sortKey struct {
	expr bexpr
	desc bool
}

type sortOp struct {
	child op
	keys  []sortKey

	rows []sqltypes.Row
	pos  int
}

func (s *sortOp) open(ex *execCtx) error {
	err := s.child.open(ex)
	defer s.child.close()
	if err != nil {
		return err
	}
	s.rows = s.rows[:0]
	var cs childStream
	cs.open(ex)
	defer cs.close()
	for {
		rows, err := cs.nextRows(s.child, ex, cs.buf.Cap())
		if err != nil {
			return err
		}
		if rows == nil {
			break
		}
		s.rows = append(s.rows, rows...)
	}
	// Every row's keys, cut from one pooled slab; the slab and the index
	// are dead once s.rows is ordered. Sort keys are output columns
	// (attachOrderLimit): evaluating them after the drain rather than as
	// each row arrives can neither raise nor charge differently.
	slabBuf, allBuf := sortKeyPool.get(), keyedPool.get()
	defer func() {
		clear(*slabBuf) // pooled, they pin no row
		clear(*allBuf)
		sortKeyPool.put(slabBuf)
		keyedPool.put(allBuf)
	}()
	nk := len(s.keys)
	slab, all := sized(slabBuf, len(s.rows)*nk), sized(allBuf, len(s.rows))
	ec := evalCtx{ex: ex}
	for r, row := range s.rows {
		ks := slab[r*nk : (r+1)*nk : (r+1)*nk]
		ec.row = row
		for i, k := range s.keys {
			v, err := k.expr.eval(&ec)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		all[r] = keyedRow{row: row, keys: ks}
	}
	slices.SortStableFunc(all, func(x, y keyedRow) int {
		for k, key := range s.keys {
			c := compareSortKey(x.keys[k], y.keys[k])
			if key.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	for r, kr := range all {
		s.rows[r] = kr.row
	}
	s.pos = 0
	return nil
}

// keyedRow is a row beside its evaluated sort keys.
type keyedRow struct {
	row  sqltypes.Row
	keys sqltypes.Row
}

// sortKeyPool and keyedPool hold a sort's key slab and index.
var (
	sortKeyPool bufPool[sqltypes.Value]
	keyedPool   bufPool[keyedRow]
)

// compareSortKey is the sort's order: sqltypes.Compare with NULL after
// every value, so NULLs come last ascending and first descending —
// PostgreSQL's defaults. Compare itself keeps NULL least, which is what
// MIN/MAX and the indexes rely on.
func compareSortKey(a, b sqltypes.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return sqltypes.Compare(a, b)
}

func (s *sortOp) next(_ *execCtx, out *sqltypes.Batch) error {
	for s.pos < len(s.rows) && !out.Full() {
		out.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

func (s *sortOp) close() { s.rows = nil }

// --- limit ---

type limitOp struct {
	child op
	n     int64
	seen  int64
}

func (l *limitOp) open(ex *execCtx) error {
	l.seen = 0
	return l.child.open(ex)
}

func (l *limitOp) next(ex *execCtx, out *sqltypes.Batch) error {
	if l.seen >= l.n {
		return nil
	}
	if err := l.child.next(ex, out); err != nil {
		return err
	}
	if rem := l.n - l.seen; int64(out.Len()) > rem {
		out.Truncate(int(rem))
	}
	l.seen += int64(out.Len())
	return nil
}

func (l *limitOp) close() { l.child.close() }

// --- distinct ---

type distinctOp struct {
	child op
	seen  map[uint64][]sqltypes.Row

	cs childStream
}

func (d *distinctOp) open(ex *execCtx) error {
	d.seen = map[uint64][]sqltypes.Row{}
	d.cs.open(ex)
	return d.child.open(ex)
}

func (d *distinctOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := d.cs.nextRow(d.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		h := sqltypes.HashRow(row)
		dup := false
		for _, prev := range d.seen[h] {
			if sqltypes.RowsEqual(prev, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], row)
		out.Append(row)
	}
	return nil
}

func (d *distinctOp) close() {
	d.child.close()
	d.cs.close()
	d.seen = nil
}
