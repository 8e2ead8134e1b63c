package engine

import (
	"context"
	"sort"
	"sync"
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

	// meter is the cost sink for this execution: the node's meter for
	// serial plans, a private per-worker meter inside a parallel
	// fragment (so concurrent workers' simulated latencies overlap in
	// wall-clock instead of serializing on one pending balance).
	meter *costmodel.Meter

	// ctx, when non-nil, is checked by long-running operators (one check
	// per morsel on the parallel path) so cancelled queries stop early.
	ctx context.Context

	// batchCap overrides the capacity of operator-internal batches
	// (0 = sqltypes.DefaultBatchCapacity). The batch-size property tests
	// shrink it to 1/2/7 to flush out batch-boundary bugs.
	batchCap int
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
// end of stream by returning an empty batch again. Appended rows
// reference stable storage and stay valid after the batch is reused.
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
	}
	cs.buf.Reset()
	cs.pos = 0
}

func (cs *childStream) close() {
	if cs.buf != nil {
		sqltypes.PutBatch(cs.buf)
		cs.buf = nil
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
// order, an index range's RowIDs, column segments, a child operator, a
// shared pass. gather appends the next visible rows to dst until it holds
// limit of them or the source is dry, paying the source's own modelled
// charges (page IO, per-tuple CPU) for exactly the slots it visits —
// stopping short of limit only at the end of the source, so a caller that
// is filling a batch visits no slot a row-at-a-time scan would not have.
type rowSource interface {
	gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error)
}

// filterRun is a compiled predicate with the evaluation context and
// scratch of the one operator (or worker) running it.
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

// fillFiltered is the scan loop every filtering operator shares: gather
// candidates into out's free tail, cut them down by the filter in place,
// and go again until out is full or the source is dry. Candidates never
// outnumber the free slots, so nothing is ever held back between calls.
func fillFiltered(ex *execCtx, src rowSource, flt *filterRun, out *sqltypes.Batch) error {
	for {
		base := out.Len()
		rows, err := src.gather(ex, out.Rows, out.Cap())
		if err != nil {
			return err
		}
		out.Rows = rows
		dry := !out.Full()
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

// resolveSide evaluates one side's candidates down to its tightest bound.
// A NULL candidate can satisfy no comparison, so it empties the interval.
func resolveSide(ec *evalCtx, low bool, cands []scanBound) (key sqltypes.Row, incl, empty bool, err error) {
	for _, c := range cands {
		v, err := c.e.eval(ec)
		if err != nil {
			return nil, false, false, err
		}
		if v.IsNull() {
			return nil, false, true, nil
		}
		if key == nil {
			key, incl = sqltypes.Row{v}, c.incl
		} else if tighter(low, key[0], incl, v, c.incl) {
			key[0], incl = v, c.incl
		}
	}
	return key, incl, false, nil
}

// collect resolves the bounds under ec and appends the RowIDs of every
// index entry inside them to rids, charging the B-tree walk to the
// execution's meter (B-tree pages are assumed cached; heap dominates, as
// on a warm PostgreSQL instance). It is the one place serial,
// morsel-parallel and DML index scans turn bounds into entries; an empty
// interval walks nothing and charges nothing.
func (sb *scanBounds) collect(ec *evalCtx, index *storage.Index, rids []storage.RowID) ([]storage.RowID, error) {
	if sb.empty {
		return rids, nil
	}
	lo, loIncl, empty, err := resolveSide(ec, true, sb.lo)
	if err != nil || empty {
		return rids, err
	}
	hi, hiIncl, empty, err := resolveSide(ec, false, sb.hi)
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
	if b, ok := bp.pool.Get().(*[]T); ok {
		return b
	}
	return new([]T)
}

// put takes back a buffer nothing reads any more (nil is a no-op).
func (bp *bufPool[T]) put(b *[]T) {
	if b != nil {
		*b = (*b)[:0]
		bp.pool.Put(b)
	}
}

// ridPool holds the RID lists index scans collect — a sub-query's range is
// thousands of entries — and rowBufPool the per-morsel output buffers of
// parallelScanOp: re-growing each by append for every sub-query and morsel
// was half of what an OLAP query allocated outside its joins.
var (
	ridPool    bufPool[storage.RowID]
	rowBufPool bufPool[sqltypes.Row]
)

// --- filter ---

// filterOp filters its child's output. It is its own rowSource: the
// candidates are the child's rows, a refill of the child stream at a time.
type filterOp struct {
	child op
	cond  bexpr

	cs  childStream
	flt filterRun
}

func (f *filterOp) open(ex *execCtx) error {
	f.flt.open(ex, f.cond)
	f.cs.open(ex)
	return f.child.open(ex)
}

func (f *filterOp) next(ex *execCtx, out *sqltypes.Batch) error {
	return fillFiltered(ex, f, &f.flt, out)
}

func (f *filterOp) gather(ex *execCtx, dst []sqltypes.Row, limit int) ([]sqltypes.Row, error) {
	for len(dst) < limit {
		rows, err := f.cs.nextRows(f.child, ex, limit-len(dst))
		if err != nil || rows == nil {
			return dst, err
		}
		dst = append(dst, rows...)
	}
	return dst, nil
}

func (f *filterOp) close() {
	f.child.close()
	f.cs.close()
	f.flt.fs.release()
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
	slab    []sqltypes.Value // output tuples are cut from it, joinSlabRows per allocation
	cs      childStream
	ec      evalCtx
}

// joinSlabRows is how many output tuples share one allocation.
const joinSlabRows = 256

func (j *hashJoinOp) open(ex *execCtx) error {
	if err := j.build.open(ex); err != nil {
		return err
	}
	defer j.build.close()
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
	} else {
		err := j.buildGeneric(*rows, opCost)
		clear(*rows)
		rowBufPool.put(rows)
		if err != nil {
			return err
		}
	}
	j.cs.open(ex)
	return j.probe.open(ex)
}

// buildGeneric fills the generic table: one evaluated key row per build
// row, retained beside it. NULL keys never join.
func (j *hashJoinOp) buildGeneric(rows []sqltypes.Row, opCost time.Duration) error {
	j.table = map[uint64][]sqltypes.Row{}
	j.keysOf = map[uint64][]sqltypes.Row{}
	for _, row := range rows {
		key := make(sqltypes.Row, len(j.buildKeys))
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
	j.probeKey = make(sqltypes.Row, len(j.probeKeys))
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

// joined cuts one output tuple from the slab and fills it with the
// selected columns of a probe row and a build row.
func (j *hashJoinOp) joined(p, b sqltypes.Row) sqltypes.Row {
	w := len(j.probeSel) + len(j.buildSel)
	if len(j.slab) < w {
		j.slab = make([]sqltypes.Value, w*joinSlabRows)
	}
	row := sqltypes.Row(j.slab[:w:w])
	j.slab = j.slab[w:]
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
	j.slab = nil
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
	if err := n.inner.open(ex); err != nil {
		return err
	}
	defer n.inner.close()
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
		projected := make(sqltypes.Row, len(p.items))
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

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max sqltypes.Value
	seen     map[uint64][]sqltypes.Value // for DISTINCT
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
	case aggMin:
		if st.min.IsNull() || sqltypes.Compare(v, st.min) < 0 {
			st.min = v
		}
	case aggMax:
		if st.max.IsNull() || sqltypes.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

// merge folds another partial state into st. Parallel workers accumulate
// per-morsel partials which the coordinator merges in morsel-index order,
// so float sums are combined in one deterministic order regardless of
// which worker ran which morsel. DISTINCT aggregates are never
// parallelized (the planner rejects them), so seen maps don't merge.
func (st *aggState) merge(def *aggDef, other *aggState) {
	st.count += other.count
	switch def.fn {
	case aggSum, aggAvg:
		st.sumI += other.sumI
		if other.isFloat {
			st.isFloat = true
			st.sumF += other.sumF
		}
	case aggMin:
		if !other.min.IsNull() && (st.min.IsNull() || sqltypes.Compare(other.min, st.min) < 0) {
			st.min = other.min
		}
	case aggMax:
		if !other.max.IsNull() && (st.max.IsNull() || sqltypes.Compare(other.max, st.max) > 0) {
			st.max = other.max
		}
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
	case aggMin:
		return st.min
	case aggMax:
		return st.max
	}
	return sqltypes.Null()
}

// aggTable is aggregation state: the groups in first-appearance order,
// which is the output order. While the groups are few they are matched
// directly (Q1 has four); past directGroups they are indexed by key hash.
// The serial aggOp fills one; the parallel path fills one per morsel and
// merges them in morsel-index order.
type aggTable struct {
	order []*aggGroup
	heads map[uint64]int32 // key hash -> first group of its chain; nil while matching directly
}

// directGroups is how many groups a table matches by comparing keys
// before it builds the hash index.
const directGroups = 8

type aggGroup struct {
	keys   sqltypes.Row
	states []aggState
	next   int32 // next group with the same key hash, -1 at the end of the chain
}

// find returns the ordinal of the group with these keys, or -1, and the
// keys' hash when the table is indexed by it.
func (t *aggTable) find(keys sqltypes.Row) (int32, uint64) {
	if t.heads == nil {
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
	case t.heads != nil:
		t.link(gi, h)
	case len(t.order) > directGroups:
		t.heads = make(map[uint64]int32, 4*directGroups)
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
// if it is new (the keys are cloned: callers pass scratch).
func (t *aggTable) lookup(keys sqltypes.Row, nAggs int) int32 {
	gi, h := t.find(keys)
	if gi < 0 {
		gi = t.insert(&aggGroup{keys: keys.Clone(), states: make([]aggState, nAggs)}, h)
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
// keybuf and only cloned when they start a new group. The row's
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

// merge folds a partial table into t, in the partial's group order:
// groups t has not seen are adopted as they are, the rest merge state by
// state.
func (t *aggTable) merge(pa *aggTable, aggs []*aggDef) {
	for _, g := range pa.order {
		gi, h := t.find(g.keys)
		if gi < 0 {
			t.insert(g, h)
			continue
		}
		dst := t.order[gi]
		for i, def := range aggs {
			dst.states[i].merge(def, &g.states[i])
		}
	}
}

// rows renders the groups in order as output tuples, group keys followed
// by aggregate results in definition order, appending to out. With no
// GROUP BY there is exactly one row even over no input (SQL
// scalar-aggregate semantics).
func (t *aggTable) rows(nGroups int, aggs []*aggDef, out []sqltypes.Row) []sqltypes.Row {
	order := t.order
	if nGroups == 0 && len(order) == 0 {
		order = []*aggGroup{{keys: sqltypes.Row{}, states: make([]aggState, len(aggs))}}
	}
	for _, g := range order {
		row := make(sqltypes.Row, 0, len(g.keys)+len(aggs))
		row = append(row, g.keys...)
		for i, def := range aggs {
			row = append(row, g.states[i].result(def))
		}
		out = append(out, row)
	}
	return out
}

// aggOp computes grouped aggregates over its child's whole output, a
// batch at a time.
type aggOp struct {
	child  op
	groups []bexpr
	aggs   []*aggDef

	ak  *aggKernels // compiled at the first open
	out []sqltypes.Row
	pos int
}

func (a *aggOp) open(ex *execCtx) error {
	if err := a.child.open(ex); err != nil {
		return err
	}
	defer a.child.close()
	if a.ak == nil {
		a.ak = compileAgg(a.groups, a.aggs)
	}
	opCost := ex.meter.Config().CPUOperator
	var table aggTable
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	sc := getAggScratch(len(a.groups))
	defer sc.release()
	for {
		rows, err := cs.nextRows(a.child, ex, cs.buf.Cap())
		if err != nil {
			return err
		}
		if rows == nil {
			break
		}
		if err := table.addBatch(&ec, a.ak, a.groups, a.aggs, rows, sc, opCost); err != nil {
			return err
		}
		ex.meter.MaybeFlush()
	}
	a.out = table.rows(len(a.groups), a.aggs, a.out[:0])
	a.pos = 0
	return nil
}

func (a *aggOp) next(_ *execCtx, out *sqltypes.Batch) error {
	for a.pos < len(a.out) && !out.Full() {
		out.Append(a.out[a.pos])
		a.pos++
	}
	return nil
}

func (a *aggOp) close() { a.out = nil }

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
	if err := s.child.open(ex); err != nil {
		return err
	}
	defer s.child.close()
	s.rows = s.rows[:0]
	type keyed struct {
		row  sqltypes.Row
		keys sqltypes.Row
	}
	var all []keyed
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	for {
		row, err := cs.nextRow(s.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ks := make(sqltypes.Row, len(s.keys))
		ec.row = row
		for i, k := range s.keys {
			v, err := k.expr.eval(&ec)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		all = append(all, keyed{row: row, keys: ks})
	}
	sort.SliceStable(all, func(i, j int) bool {
		for k := range s.keys {
			c := sqltypes.Compare(all[i].keys[k], all[j].keys[k])
			if s.keys[k].desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, kr := range all {
		s.rows = append(s.rows, kr.row)
	}
	s.pos = 0
	return nil
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
