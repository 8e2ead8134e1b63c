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

// --- sequential scan ---

// seqScanOp reads every heap page in order, applying MVCC visibility and
// an optional filter, filling output batches directly from the pages.
// Every page access goes through the node's buffer pool with
// sequential-read cost. The scan holds no per-row state beyond the
// page/slot position, so a filtered scan runs allocation-free: the one
// evalCtx is reused across all rows.
type seqScanOp struct {
	rel    *storage.Relation
	filter bexpr // may be nil

	pages []*storage.Page
	pi    int
	slot  int32
	ec    evalCtx
}

func (s *seqScanOp) open(ex *execCtx) error {
	s.pages = s.rel.PageSnapshot()
	s.pi, s.slot = 0, 0
	s.ec = evalCtx{ex: ex}
	if s.pi < len(s.pages) {
		ex.touch(s.pages[0].ID, true)
	}
	return nil
}

func (s *seqScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	for s.pi < len(s.pages) {
		p := s.pages[s.pi]
		n := int32(p.Count())
		for s.slot < n {
			if out.Full() {
				return nil
			}
			slot := s.slot
			s.slot++
			ex.meter.Charge(cfg.CPUTuple)
			if !p.Visible(slot, ex.snapshot) {
				continue
			}
			row := p.Row(slot)
			if s.filter != nil {
				s.ec.row = row
				keep, err := truthOf(s.filter, &s.ec)
				if err != nil {
					return err
				}
				if keep != triTrue {
					continue
				}
			}
			out.Append(row)
		}
		s.pi++
		s.slot = 0
		if s.pi < len(s.pages) {
			ex.touch(s.pages[s.pi].ID, true)
			ex.meter.MaybeFlush()
		}
	}
	return nil
}

func (s *seqScanOp) close() { s.pages = nil }

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
// (index nested-loop sub-queries). A scan over the clustered index is
// charged sequential IO — its heap accesses are physically contiguous —
// while secondary-index fetches pay random IO.
type indexScanOp struct {
	rel    *storage.Relation
	index  *storage.Index
	bounds *scanBounds
	filter bexpr

	rids   *[]storage.RowID // from ridPool between open and close
	pages  []*storage.Page  // taken after rids: covers every page they name
	pos    int
	lastPg int64
	ec     evalCtx
}

func (s *indexScanOp) open(ex *execCtx) error {
	s.ec = evalCtx{ex: ex}
	s.pos = 0
	s.lastPg = -1
	if s.rids == nil {
		s.rids = ridPool.get()
	}
	var err error
	*s.rids, err = s.bounds.collect(&s.ec, s.index, (*s.rids)[:0])
	// Pages are append-only and an entry is indexed only after its page is
	// in the list, so a snapshot taken now resolves every collected RID
	// without a relation-lock round trip per row.
	if len(*s.rids) > 0 {
		s.pages = s.rel.PageSnapshot()
	}
	return err
}

func (s *indexScanOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	rids := *s.rids
	for s.pos < len(rids) {
		if out.Full() {
			return nil
		}
		rid := rids[s.pos]
		s.pos++
		if int(rid.Page) >= len(s.pages) {
			continue
		}
		p := s.pages[rid.Page]
		if p.ID != s.lastPg {
			ex.touch(p.ID, s.index.Clustered)
			s.lastPg = p.ID
			ex.meter.MaybeFlush()
		}
		ex.meter.Charge(cfg.CPUTuple)
		if !p.Visible(rid.Slot, ex.snapshot) {
			continue
		}
		row := p.Row(rid.Slot)
		if s.filter != nil {
			s.ec.row = row
			keep, err := truthOf(s.filter, &s.ec)
			if err != nil {
				return err
			}
			if keep != triTrue {
				continue
			}
		}
		out.Append(row)
	}
	return nil
}

func (s *indexScanOp) close() {
	ridPool.put(s.rids)
	s.rids, s.pages = nil, nil
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

type filterOp struct {
	child op
	cond  bexpr

	cs childStream
	ec evalCtx
}

func (f *filterOp) open(ex *execCtx) error {
	f.ec = evalCtx{ex: ex}
	f.cs.open(ex)
	return f.child.open(ex)
}

func (f *filterOp) next(ex *execCtx, out *sqltypes.Batch) error {
	for !out.Full() {
		row, err := f.cs.nextRow(f.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		f.ec.row = row
		keep, err := truthOf(f.cond, &f.ec)
		if err != nil {
			return err
		}
		if keep == triTrue {
			out.Append(row)
		}
	}
	return nil
}

func (f *filterOp) close() {
	f.child.close()
	f.cs.close()
}

// --- hash join ---

// hashJoinOp equi-joins probe (streamed) against build (materialized into
// a hash table). An output tuple carries only the input columns something
// above the join reads: the probeSel positions of the probe row followed
// by the buildSel positions of the build row (the planner's narrowed
// layout; see neededCols). Only inner joins exist in the dialect.
type hashJoinOp struct {
	probe, build         op
	probeKeys, buildKeys []bexpr
	probeSel, buildSel   []int
	inCols               int // probe + build input width, for EXPLAIN

	table    map[uint64][]sqltypes.Row // hash -> build rows
	keysOf   map[uint64][]sqltypes.Row // hash -> build keys, parallel to table
	matches  []sqltypes.Row            // matches for current probe row
	mpos     int                       // next match to emit
	current  sqltypes.Row
	probeKey sqltypes.Row     // scratch: a probe key is dead after its bucket lookup
	slab     []sqltypes.Value // output tuples are cut from it, joinSlabRows per allocation
	cs       childStream
	ec       evalCtx
}

// joinSlabRows is how many output tuples share one allocation.
const joinSlabRows = 256

func (j *hashJoinOp) open(ex *execCtx) error {
	if err := j.build.open(ex); err != nil {
		return err
	}
	defer j.build.close()
	j.ec = evalCtx{ex: ex}
	j.table = map[uint64][]sqltypes.Row{}
	j.keysOf = map[uint64][]sqltypes.Row{}
	j.matches, j.mpos = j.matches[:0], 0
	j.current = nil
	cfg := ex.meter.Config()
	var bs childStream
	bs.open(ex)
	defer bs.close()
	for {
		row, err := bs.nextRow(j.build, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		// Build keys are retained beside their rows, so each gets its own Row.
		key := make(sqltypes.Row, len(j.buildKeys))
		null, err := evalKeys(&j.ec, j.buildKeys, row, key)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never join
		}
		h := sqltypes.HashRow(key)
		j.table[h] = append(j.table[h], row)
		j.keysOf[h] = append(j.keysOf[h], key)
		ex.meter.Charge(cfg.CPUOperator)
	}
	j.probeKey = make(sqltypes.Row, len(j.probeKeys))
	j.cs.open(ex)
	return j.probe.open(ex)
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

func (j *hashJoinOp) next(ex *execCtx, out *sqltypes.Batch) error {
	cfg := ex.meter.Config()
	for !out.Full() {
		if j.mpos < len(j.matches) {
			out.Append(j.joined(j.current, j.matches[j.mpos]))
			j.mpos++
			continue
		}
		row, err := j.cs.nextRow(j.probe, ex)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		ex.meter.Charge(cfg.CPUOperator)
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

// aggTable is hash-aggregation state: groups bucketed by key hash plus
// their first-appearance order, which is the output order. The serial
// aggOp fills one; the parallel path fills one per morsel and merges them
// in morsel-index order.
type aggTable struct {
	buckets map[uint64][]*aggGroup
	order   []*aggGroup
}

type aggGroup struct {
	keys   sqltypes.Row
	states []aggState
}

// add folds the tuple in ec.row into the table. Group keys are evaluated
// into the caller's scratch keybuf and only cloned when they start a new
// group, so the ungrouped Q1/Q6 paths accumulate allocation-free. The
// row's aggregates are charged in one call — opCost each, also for the
// ones evaluated before an argument fails.
func (t *aggTable) add(ec *evalCtx, groups []bexpr, aggs []*aggDef, keybuf sqltypes.Row, opCost time.Duration) error {
	for i, g := range groups {
		v, err := g.eval(ec)
		if err != nil {
			return err
		}
		keybuf[i] = v
	}
	h := sqltypes.HashRow(keybuf)
	var grp *aggGroup
	for _, g := range t.buckets[h] {
		if sqltypes.RowsEqual(g.keys, keybuf) {
			grp = g
			break
		}
	}
	if grp == nil {
		grp = &aggGroup{keys: keybuf.Clone(), states: make([]aggState, len(aggs))}
		t.buckets[h] = append(t.buckets[h], grp)
		t.order = append(t.order, grp)
	}
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

// aggOp computes grouped aggregates over its child's whole output.
type aggOp struct {
	child  op
	groups []bexpr
	aggs   []*aggDef

	out    []sqltypes.Row
	pos    int
	keybuf sqltypes.Row
}

func (a *aggOp) open(ex *execCtx) error {
	if err := a.child.open(ex); err != nil {
		return err
	}
	defer a.child.close()
	opCost := ex.meter.Config().CPUOperator
	table := aggTable{buckets: map[uint64][]*aggGroup{}}
	ec := evalCtx{ex: ex}
	var cs childStream
	cs.open(ex)
	defer cs.close()
	if a.keybuf == nil {
		a.keybuf = make(sqltypes.Row, len(a.groups))
	}
	for {
		row, err := cs.nextRow(a.child, ex)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ec.row = row
		if err := table.add(&ec, a.groups, a.aggs, a.keybuf, opCost); err != nil {
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
