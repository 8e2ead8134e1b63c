package engine

// Morsel-driven intra-node parallelism. SVP/AVP split a query across the
// cluster; this file splits each node's sub-query across workers, the
// second level of parallelism (Hespe et al., Rödiger et al. — see
// PAPERS.md). The planner identifies the parallel-safe fragment of a
// plan — a base-relation scan plus stacked filters, optionally feeding a
// projection or a partial aggregation — and replaces it with a gather
// operator that splits the scan into fixed-size morsels, fans them out
// through per-worker shards with work stealing, and merges per-morsel
// partial results in morsel-index order.
//
// Determinism rule: partial state is kept per MORSEL, not per worker,
// and morsel decomposition depends only on the data (never on the
// degree), so the merge folds float aggregates in one fixed order — the
// same order the serial path would visit pages — making output
// run-to-run bit-identical at any fixed degree and identical across
// degrees >= 2. Degree 1 takes the untouched serial path; serial versus
// parallel differ only by float re-association, within the differential
// oracle's ULP tolerance.
//
// Everything above the merge point (sort, limit, distinct, join probe,
// HAVING, aggregate-space projection) stays serial; expressions holding
// mutable sub-plan caches are rejected by the safety walker and fall
// back to serial execution.

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

const (
	// morselPages is the sequential-scan morsel size in heap pages; fixed
	// so decomposition is independent of the worker count (determinism)
	// and small enough that a straggler worker strands little work.
	morselPages = 8
	// morselRids is the index-scan morsel size in row IDs.
	morselRids = 4096
)

// Columnar fragments rely on segments and sequential morsels cutting
// the page list identically; fail the build if the two constants drift.
var _ [0]struct{} = [storage.SegmentSpanPages - morselPages]struct{}{}

// fragSpec describes one parallel-safe plan fragment: a base-relation
// scan (sequential or index range), the conjunctive filters above it,
// and an optional projection. The spec is immutable and shared by all
// workers; every bound expression in it passed parallelSafeExpr, so
// evaluation needs only a private evalCtx.
type fragSpec struct {
	rel        *storage.Relation
	index      *storage.Index // nil = sequential heap scan
	bounds     *scanBounds    // index key bounds (resolved once, by the coordinator)
	scanFilter bexpr          // pushed-down scan predicate (may be nil)
	filters    []bexpr        // stacked filter conditions, innermost first
	project    []bexpr        // nil: emit raw scan rows

	// columnar switches a sequential fragment to the segment store: one
	// morsel per column segment (storage.SegmentSpanPages equals
	// morselPages, so the row partition matches the heap decomposition
	// exactly), with zone-map-pruned segments dropped before any worker
	// is scheduled — a pruned segment is an empty partial, which merges
	// as the identity, so results stay bit-identical to the heap path.
	columnar bool
	segs     []*storage.Segment // kept segments, set by decompose

	// preds are scanFilter and filters compiled, one rowFilter per level in
	// application order (a stacked filter only sees the rows the level below
	// kept, so levels do not merge into one conjunction). Set by decompose,
	// before any worker runs.
	preds []*rowFilter
}

// morsel is one unit of work: a half-open range over the fragment's page
// snapshot (sequential scan) or materialized RID list (index scan).
type morsel struct{ lo, hi int }

// decompose materializes the scan's input once on the coordinator and
// cuts it into fixed-size morsels. Index bounds are evaluated here (they
// may reference correlation parameters) and the B-tree walk is charged
// to the coordinator's meter exactly as the serial indexScanOp charges it.
// An index fragment's RIDs are collected into the caller's buffer (from
// ridPool; the caller returns it once its workers have exited) and its
// page snapshot is taken after the walk, so it resolves every one of them.
// The morsels are appended to the caller's empty buffer.
func (f *fragSpec) decompose(ex *execCtx, rids *[]storage.RowID, morsels []morsel) (pages []*storage.Page, _ []morsel, err error) {
	if f.preds == nil {
		if f.scanFilter != nil {
			f.preds = append(f.preds, compileFilter(f.scanFilter))
		}
		for _, c := range f.filters {
			f.preds = append(f.preds, compileFilter(c))
		}
	}
	if f.columnar {
		set, built := f.rel.Segments(ex.snapshot)
		if built {
			ex.node.pstats.addSegBuilt(int64(len(set.Segments)))
			ex.node.pstats.setSegBytes(ex.node.db.SegmentBytes())
		}
		ec := evalCtx{ex: ex}
		preds := collectZonePreds(f.scanFilter, true)
		for _, c := range f.filters {
			preds = append(preds, collectZonePreds(c, true)...)
		}
		kept, pruned := pruneSegments(set, resolveZoneChecks(preds, &ec))
		ex.node.pstats.addSegPruned(int64(pruned))
		ex.node.pstats.addSegScanned(int64(len(kept)))
		f.segs = kept
		for i := range kept {
			morsels = append(morsels, morsel{i, i + 1})
		}
		return nil, morsels, nil
	}
	if f.index == nil {
		pages = f.rel.PageSnapshot()
		for lo := 0; lo < len(pages); lo += morselPages {
			morsels = append(morsels, morsel{lo, min(lo+morselPages, len(pages))})
		}
		return pages, morsels, nil
	}
	*rids, err = f.bounds.collect(&evalCtx{ex: ex}, f.index, (*rids)[:0])
	if err != nil {
		return nil, morsels, err
	}
	if len(*rids) == 0 {
		return nil, morsels, nil // nothing to resolve: leave the relation's lock alone
	}
	for l := 0; l < len(*rids); l += morselRids {
		morsels = append(morsels, morsel{l, min(l+morselRids, len(*rids))})
	}
	return f.rel.PageSnapshot(), morsels, nil
}

// runMorsel scans one morsel under the worker's execution context,
// charging the worker's meter with the same IO/CPU the serial operators
// charge, and hands the surviving (pre-projection) rows to emit a batch at
// a time. The rows slice is the worker's scratch: emit keeps the Row
// headers it wants, not the slice.
func (f *fragSpec) runMorsel(ex *execCtx, ec *evalCtx, m morsel, pages []*storage.Page, rids []storage.RowID, emit func(rows []sqltypes.Row) error) error {
	var src rowSource
	switch {
	case f.columnar:
		seg := &segScan{segs: f.segs[m.lo:m.hi]}
		seg.begin(ex)
		src = seg
	case f.index == nil:
		heap := &heapScan{pages: pages, pi: m.lo, hi: m.hi}
		heap.begin(ex)
		src = heap
	default:
		src = &ridScan{pages: pages, rids: rids[m.lo:m.hi], lastPg: -1, sequential: f.index.Clustered}
	}
	chunk := ex.batchCap
	if chunk <= 0 {
		chunk = sqltypes.DefaultBatchCapacity
	}
	buf := rowBufPool.get()
	var fs filterScratch
	used := 0
	defer func() {
		clear((*buf)[:used]) // pooled, it pins no row
		rowBufPool.put(buf)
		fs.release()
	}()
	for {
		rows, err := src.gather(ex, (*buf)[:0], chunk)
		if err != nil {
			return err
		}
		*buf = rows
		used = max(used, len(rows))
		dry := len(rows) < chunk
		for _, p := range f.preds {
			if rows, err = p.apply(ec, &fs, rows); err != nil {
				return err
			}
		}
		if len(rows) > 0 {
			if err := emit(rows); err != nil {
				return err
			}
		}
		if dry {
			return nil
		}
	}
}

// --- work queue ---

// morselQueue pre-assigns morsel indices round-robin to per-worker
// shards — shard w holds w, w+workers, w+2·workers, … — each drained
// through an atomic cursor. A worker exhausts its own shard, then steals
// from the other shards' cursors — the classic morsel-driven balance:
// cheap uncontended claims in the common case, stealing only when a worker
// runs dry. Its owner keeps it across runs; reset readies it for the next.
type morselQueue struct {
	n       int // morsels
	cursors []atomic.Int64
	steals  atomic.Int64
}

func (q *morselQueue) reset(nMorsels, workers int) {
	q.n = nMorsels
	q.cursors = zeroed(q.cursors, workers)
	q.steals.Store(0)
}

// next claims the next morsel for worker self, stealing if its own shard
// is exhausted. Returns false when no work remains anywhere.
func (q *morselQueue) next(self int) (int, bool) {
	workers := len(q.cursors)
	for off := 0; off < workers; off++ {
		w := (self + off) % workers
		mi := w + int(q.cursors[w].Add(1)-1)*workers
		if mi >= q.n {
			continue
		}
		if off != 0 {
			q.steals.Add(1)
		}
		return mi, true
	}
	return 0, false
}

// zeroed returns s with length n and every element zero, reusing its
// capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// --- shared worker machinery ---

// fragRun drives degree workers over a decomposed fragment. Each worker
// owns a private cost meter (so simulated latencies overlap in
// wall-clock, as concurrent cores would), a private evalCtx, and hands
// per-morsel results to the owner through the handle callback; the
// coordinator later merges them in morsel-index order.
type fragRun struct {
	queue  *morselQueue
	degree int

	stop  atomic.Bool
	errMu sync.Mutex
	err   error

	// notify, when non-nil, is called every time stop is raised (error,
	// cancellation). Owners whose workers or consumer can park on a
	// condition variable (parallelScanOp's backpressure wait and
	// morsel-order wait) set it to a broadcast, so a stop reaches parked
	// goroutines that would otherwise sleep through it: the done-callback
	// broadcast alone cannot wake them, because it only runs after all
	// workers exit — which a parked worker can't do without a wakeup.
	notify func()

	busy atomic.Int64 // summed worker execution time, for the utilization gauge
	wg   sync.WaitGroup
	// finished closes once the run is over: every worker, the context
	// watcher and the done callback have returned. An operator waits for
	// it before it re-opens, so nothing of a past run touches its state.
	// It stays nil when the run was over before start returned.
	finished chan struct{}
}

// wait blocks until the run is over (see finished).
func (r *fragRun) wait() {
	if r.finished != nil {
		<-r.finished
	}
}

func (r *fragRun) setErr(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.stop.Store(true)
	if r.notify != nil {
		r.notify()
	}
}

// noteIdle subtracts time a worker spent parked (the scan backpressure
// wait) from the busy accumulator, so the utilization gauge reflects
// execution time only, not time blocked on a slow consumer.
func (r *fragRun) noteIdle(d time.Duration) { r.busy.Add(-int64(d)) }

func (r *fragRun) firstErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// start launches the workers. handle runs on the claiming worker with a
// worker-private execCtx/evalCtx and must deliver the morsel's result to
// the owner (each morsel index is claimed exactly once, so indexed
// writes into a pre-sized slice need no locking; wg.Wait or the
// publish lock provides the happens-before edge for readers). done, if
// non-nil, runs once after every worker has exited.
//
// A fragment cut into one morsel or none — a point lookup, a narrow range
// — starts no goroutine: the caller runs the one worker loop itself, with
// the same private meter, partial and in-order merge, so its results and
// charges are those of a worker, and the run is over when start returns.
func (r *fragRun) start(ex *execCtx, handle func(wex *execCtx, wec *evalCtx, mi int) error, done func()) {
	start := time.Now()
	if r.queue.n <= 1 {
		r.work(ex, 0, handle)
		r.finish(ex.node, start, done)
		return
	}
	// Watch for context cancellation from outside the worker loops: the
	// per-morsel ctx check can't fire while every worker is parked in a
	// backpressure wait, so a dedicated watcher raises stop (which
	// notifies cond-parked goroutines) the moment the deadline hits.
	r.finished = make(chan struct{})
	var stopWatch, watcherGone chan struct{}
	if ex.ctx != nil {
		stopWatch, watcherGone = make(chan struct{}), make(chan struct{})
		ctx := ex.ctx
		go func() {
			defer close(watcherGone)
			select {
			case <-ctx.Done():
				r.setErr(ctx.Err())
			case <-stopWatch:
			}
		}()
	}
	for w := 0; w < r.degree; w++ {
		r.wg.Add(1)
		go func(self int) {
			defer r.wg.Done()
			r.work(ex, self, handle)
		}(w)
	}
	nd := ex.node
	go func() {
		defer close(r.finished)
		r.wg.Wait()
		if stopWatch != nil {
			close(stopWatch)
			<-watcherGone
		}
		r.finish(nd, start, done)
	}()
}

// work is worker self's loop: it claims morsels until none is left or the
// run stops, charging a private meter that it absorbs into ex's at the end.
func (r *fragRun) work(ex *execCtx, self int, handle func(wex *execCtx, wec *evalCtx, mi int) error) {
	wm := costmodel.NewMeter(ex.meter.Config())
	wex := &execCtx{node: ex.node, snapshot: ex.snapshot, params: ex.params, meter: wm, ctx: ex.ctx, batchCap: ex.batchCap}
	wec := evalCtx{ex: wex}
	for !r.stop.Load() {
		if wex.ctx != nil {
			if err := wex.ctx.Err(); err != nil {
				r.setErr(err)
				break
			}
		}
		mi, ok := r.queue.next(self)
		if !ok {
			break
		}
		t0 := time.Now()
		err := handle(wex, &wec, mi)
		r.busy.Add(int64(time.Since(t0)))
		if err != nil {
			r.setErr(err)
			break
		}
	}
	wm.Flush()
	ex.meter.AbsorbVirtual(wm.Virtual())
}

// finish records the run's steals and utilization once every worker has
// exited, then runs done.
func (r *fragRun) finish(nd *Node, start time.Time, done func()) {
	nd.pstats.addSteals(r.queue.steals.Load())
	if wall := time.Since(start); wall > 0 && r.degree > 0 {
		util := 100 * r.busy.Load() / (int64(wall) * int64(r.degree))
		nd.pstats.setUtilization(min(max(util, 0), 100))
	}
	if done != nil {
		done()
	}
}

// --- parallel partial aggregation (merge point: aggregate) ---

// parallelAggOp replaces an aggOp whose input is a parallel-safe
// fragment. open runs the fragment to completion across the workers
// (aggregation is a pipeline breaker anyway), each morsel accumulating a
// private aggTable so partials merge deterministically, merges them in
// morsel-index order, and streams the merged groups like aggOp.
type parallelAggOp struct {
	frag   *fragSpec
	groups []bexpr
	aggs   []*aggDef
	degree int

	ak *aggKernels // compiled at the first open
	aggOut

	// Kept across runs with their capacity: the morsels, their queue and a
	// partial table per morsel, whose chunks go back to the pools once the
	// run is over.
	morsels  []morsel
	queue    morselQueue
	partials []aggTable
}

func (a *parallelAggOp) open(ex *execCtx) error {
	a.begin()
	err := a.fill(ex)
	for i := range a.partials { // merged, failed or cancelled alike
		a.partials[i].release()
	}
	if err != nil {
		a.close() // a failed open keeps no chunk
		return err
	}
	a.render(len(a.groups), a.aggs)
	return nil
}

// fill runs the fragment to completion, each morsel into its own partial
// table, and merges the partials into the table.
func (a *parallelAggOp) fill(ex *execCtx) error {
	if a.ak == nil {
		a.ak = compileAgg(a.groups, a.aggs)
	}
	rids := ridPool.get()
	defer ridPool.put(rids) // every worker has exited by the time fill returns
	pages, morsels, err := a.frag.decompose(ex, rids, a.morsels[:0])
	a.morsels = morsels
	if err != nil {
		return err
	}
	ex.node.pstats.addQuery()
	ex.node.pstats.addMorsels(int64(len(morsels)))

	a.partials = slices.Grow(a.partials[:0], len(morsels))[:len(morsels)]
	a.queue.reset(len(morsels), a.degree)
	run := &fragRun{queue: &a.queue, degree: a.degree}
	run.start(ex, func(wex *execCtx, wec *evalCtx, mi int) error {
		opCost := wex.meter.Config().CPUOperator
		pa := &a.partials[mi]
		sc := getAggScratch(len(a.groups))
		defer sc.release()
		return a.frag.runMorsel(wex, wec, morsels[mi], pages, *rids, func(rows []sqltypes.Row) error {
			return pa.addBatch(wec, a.ak, a.groups, a.aggs, rows, sc, opCost)
		})
	}, nil)
	run.wait()
	if err := run.firstErr(); err != nil {
		return err
	}

	// Merge in morsel-index order: group order is first appearance across
	// ordered morsels (exactly the serial visit order), float partials
	// fold in one deterministic sequence.
	for i := range a.partials {
		a.table.merge(&a.partials[i], a.aggs)
	}
	return nil
}

// --- parallel scan/project (merge point: scan) ---

// scanWindow bounds how far (in morsels) workers may run ahead of the
// consumer, per worker: completed-but-unconsumed morsels hold their rows
// in memory, so a slow consumer must apply backpressure.
const scanWindow = 8

// parallelScanOp replaces a projection (or a join's probe input) over a
// parallel-safe fragment. Workers materialize each morsel's output rows;
// next streams them strictly in morsel-index order, so downstream
// operators see the serial row order and LIMIT/first-batch semantics
// still semi-stream (the first morsel's rows are deliverable while later
// morsels are in flight).
type parallelScanOp struct {
	frag   *fragSpec
	degree int
	// out is the caller's arena when this projection builds the plan's
	// result rows (rootHome, Prepared.OpenAt). A worker then cuts a
	// morsel's rows from the morsel's own arena, and the consumer moves
	// that arena's chunks into out once it has streamed the morsel; with no
	// arena every row is its own heap allocation. A join's probe side
	// projects nothing: its rows are the stored ones.
	out *RowArena

	run *fragRun
	// The morsels, their queue, results and done flags keep their capacity
	// across runs.
	morsels []morsel
	queue   morselQueue
	rids    *[]storage.RowID // from ridPool; close returns it, after the workers exit

	mu       sync.Mutex
	cond     *sync.Cond
	results  []*morselOut // per morsel, from morselOuts
	done     []bool
	consumed int // next morsel index to stream from
	rowPos   int // offset within the current morsel's rows
	stopped  bool
}

func (s *parallelScanOp) open(ex *execCtx) error {
	if s.rids == nil {
		s.rids = ridPool.get()
	}
	rids := s.rids
	pages, morsels, err := s.frag.decompose(ex, rids, s.morsels[:0])
	s.morsels = morsels
	if err != nil {
		return err
	}
	ex.node.pstats.addQuery()
	ex.node.pstats.addMorsels(int64(len(morsels)))

	s.results = zeroed(s.results, len(morsels))
	s.done = zeroed(s.done, len(morsels))
	keep := s.out != nil
	s.consumed, s.rowPos = 0, 0
	s.stopped = false
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	s.queue.reset(len(morsels), s.degree)
	s.run = &fragRun{queue: &s.queue, degree: s.degree}

	run := s.run
	// Wake parked goroutines the moment any worker (or the ctx watcher)
	// raises stop: both the backpressure wait below and the consumer's
	// morsel-order wait in next park on s.cond, and the morsel completion
	// or done-callback broadcasts that normally wake them never arrive on
	// the error/cancel path while a worker is still parked.
	run.notify = func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	run.start(ex, func(wex *execCtx, wec *evalCtx, mi int) error {
		// Backpressure: wait until the consumer is within the window. Time
		// parked here is idle, not busy — report it back to the run so the
		// utilization gauge is not inflated by a slow consumer.
		s.mu.Lock()
		if mi >= s.consumed+scanWindow*s.degree && !s.stopped && !run.stop.Load() {
			idle0 := time.Now()
			for mi >= s.consumed+scanWindow*s.degree && !s.stopped && !run.stop.Load() {
				s.cond.Wait()
			}
			run.noteIdle(time.Since(idle0))
		}
		stopped := s.stopped
		s.mu.Unlock()
		if stopped || run.stop.Load() {
			return nil
		}
		mo := getMorselOut()
		rows := mo.rows
		var arena *RowArena // heap rows, unless the caller gave an arena
		if keep {
			arena = &mo.arena
		}
		err := s.frag.runMorsel(wex, wec, morsels[mi], pages, *rids, func(kept []sqltypes.Row) error {
			if s.frag.project == nil {
				rows = append(rows, kept...)
				return nil
			}
			for _, row := range kept {
				wec.row = row
				projected := newRow(arena, len(s.frag.project))
				for i, it := range s.frag.project {
					v, err := it.eval(wec)
					if err != nil {
						return err
					}
					projected[i] = v
				}
				rows = append(rows, projected)
			}
			return nil
		})
		mo.rows = rows
		if err != nil {
			putMorselOut(mo)
			return err
		}
		s.mu.Lock()
		s.results[mi] = mo
		s.done[mi] = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	}, func() {
		// Wake a consumer blocked on a morsel that will never complete
		// (error or cancellation path).
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	return nil
}

func (s *parallelScanOp) next(_ *execCtx, out *sqltypes.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !out.Full() {
		if s.consumed >= len(s.morsels) {
			return s.run.firstErr()
		}
		for !s.done[s.consumed] {
			if err := s.run.firstErr(); err != nil {
				return err
			}
			if s.stopped {
				return nil
			}
			s.cond.Wait()
		}
		rows := s.results[s.consumed].rows
		for s.rowPos < len(rows) && !out.Full() {
			out.Append(rows[s.rowPos])
			s.rowPos++
		}
		if s.rowPos >= len(rows) {
			// Morsel fully streamed: the batch holds its own copies of the
			// Row headers, so the buffer itself is dead; the rows are the
			// caller's now.
			s.keepMorsel(s.consumed)
			s.consumed++
			s.rowPos = 0
			s.cond.Broadcast() // admit backpressured workers
		}
	}
	return nil
}

func (s *parallelScanOp) close() {
	if s.run != nil {
		s.mu.Lock()
		s.stopped = true
		s.run.stop.Store(true)
		s.cond.Broadcast()
		s.mu.Unlock()
		s.run.wait()
		s.run = nil
	}
	if s.rowPos > 0 { // a morsel a stopped consumer had begun to stream
		s.keepMorsel(s.consumed)
	}
	for _, mo := range s.results { // morsels a stopped consumer never reached
		if mo != nil {
			putMorselOut(mo)
		}
	}
	ridPool.put(s.rids) // also after a failed decompose
	clear(s.results)
	s.rids, s.rowPos = nil, 0
}

// keepMorsel is done with morsel mi, which its worker has finished and the
// consumer has streamed: the chunks its rows were cut from move into the
// caller's arena, and its buffers go back to the pool.
func (s *parallelScanOp) keepMorsel(mi int) {
	mo := s.results[mi]
	if s.out != nil {
		s.out.adopt(&mo.arena)
	}
	putMorselOut(mo)
	s.results[mi] = nil
}

// morselOut is one morsel's output: its rows, and the arena a plan root's
// projection cut them from. Pooled as a pair, so a parallel scan allocates
// neither per run.
type morselOut struct {
	rows  []sqltypes.Row
	arena RowArena
}

var morselOuts = sync.Pool{New: func() any { return new(morselOut) }}

func getMorselOut() *morselOut {
	auditPool(1)
	return morselOuts.Get().(*morselOut)
}

// putMorselOut takes back a morsel's output nothing reads any more: rows
// cleared, so it pins none while pooled, and what is left in its arena —
// rows a consumer never reached — released.
func putMorselOut(mo *morselOut) {
	auditPool(-1)
	clear(mo.rows)
	mo.rows = mo.rows[:0]
	mo.arena.release()
	morselOuts.Put(mo)
}

// --- plan rewrite ---

// parallelizePlan rewrites a planned operator tree, replacing the
// deepest parallel-safe fragment with a gather operator running at the
// given degree. gated applies the auto-mode size floor (explicitly
// requested degrees bypass it). The rewrite never changes result rows or
// their order.
func parallelizePlan(nd *Node, root op, degree int, gated bool) op {
	switch o := root.(type) {
	case *aggOp:
		if frag, ok := extractFragment(o.child, gated); ok && aggsParallelSafe(o.groups, o.aggs) {
			return &parallelAggOp{frag: frag, groups: o.groups, aggs: o.aggs, degree: degree, aggOut: aggOut{out: o.out}}
		}
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *projectOp:
		if frag, ok := extractFragment(o.child, gated); ok && exprsParallelSafe(o.items) {
			frag.project = o.items
			return &parallelScanOp{frag: frag, degree: degree}
		}
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *filterOp: // e.g. HAVING above an aggregate
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *sortOp:
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *limitOp:
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *distinctOp:
		o.child = parallelizePlan(nd, o.child, degree, gated)
		return o
	case *hashJoinOp:
		// The probe side streams; its scan parallelizes under the serial
		// probe loop (the join sits above the merge point). The build side
		// is materialized into the hash table anyway and is typically the
		// small input, so it stays serial.
		if frag, ok := extractFragment(o.probe, gated); ok {
			o.probe = &parallelScanOp{frag: frag, degree: degree}
		} else {
			o.probe = parallelizePlan(nd, o.probe, degree, gated)
		}
		return o
	default:
		return root
	}
}

// extractFragment recognizes a parallel-safe chain of stacked filters
// over a base-relation scan. gated rejects relations below the auto-mode
// size floor.
func extractFragment(o op, gated bool) (*fragSpec, bool) {
	var filters []bexpr
	for {
		switch v := o.(type) {
		case *filterOp:
			if !parallelSafeExpr(v.cond) {
				return nil, false
			}
			filters = append(filters, v.cond)
			o = v.child
		case *seqScanOp:
			if gated && v.rel.LiveRows() < parallelMinRows {
				return nil, false
			}
			if !parallelSafeExpr(v.filter) {
				return nil, false
			}
			reverseExprs(filters)
			return &fragSpec{rel: v.rel, scanFilter: v.filter, filters: filters}, true
		case *colScanOp:
			if v.needKeyOrder {
				// This scan replaced a clustered index range scan. Its
				// columnar decomposition (8-page segments) cuts rows
				// differently than the heap index fragment's 4096-rid
				// morsels, which would re-associate float partials in a
				// different order — so under parallelism the heap fallback
				// fragment runs instead, keeping columnar on/off
				// bit-identical. Columnar parallel fragments exist only
				// for sequential-scan shapes, where segment and morsel
				// boundaries coincide by construction.
				o = v.fallback
				continue
			}
			if gated && v.rel.LiveRows() < parallelMinRows {
				return nil, false
			}
			if !parallelSafeExpr(v.filter) {
				return nil, false
			}
			reverseExprs(filters)
			return &fragSpec{rel: v.rel, scanFilter: v.filter, filters: filters, columnar: true}, true
		case *indexScanOp:
			if gated && v.rel.LiveRows() < parallelMinRows {
				return nil, false
			}
			if !parallelSafeExpr(v.filter) {
				return nil, false
			}
			reverseExprs(filters)
			return &fragSpec{rel: v.rel, index: v.index, bounds: v.bounds, scanFilter: v.filter, filters: filters}, true
		default:
			return nil, false
		}
	}
}

// reverseExprs restores innermost-first filter order (extraction walks
// top-down); application order must match the serial pipeline so
// evaluation errors surface for the same rows.
func reverseExprs(s []bexpr) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func aggsParallelSafe(groups []bexpr, aggs []*aggDef) bool {
	if !exprsParallelSafe(groups) {
		return false
	}
	for _, def := range aggs {
		if def.distinct {
			// DISTINCT needs a cross-morsel duplicate set; serial fallback.
			return false
		}
		if def.arg != nil && !parallelSafeExpr(def.arg) {
			return false
		}
	}
	return true
}

func exprsParallelSafe(es []bexpr) bool {
	for _, e := range es {
		if !parallelSafeExpr(e) {
			return false
		}
	}
	return true
}

// parallelSafeExpr reports whether a bound expression may be evaluated
// concurrently from multiple workers. Sub-plan expressions (EXISTS, IN
// (SELECT), scalar sub-queries) hold a mutable materialization cache and
// are rejected; unknown expression types are rejected conservatively.
func parallelSafeExpr(e bexpr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *colExpr, *paramExpr, *litExpr, *aggRefExpr:
		return true
	case *binExpr:
		return parallelSafeExpr(x.l) && parallelSafeExpr(x.r)
	case *negExpr:
		return parallelSafeExpr(x.e)
	case *cmpExpr:
		return parallelSafeExpr(x.l) && parallelSafeExpr(x.r)
	case *andExpr:
		return parallelSafeExpr(x.l) && parallelSafeExpr(x.r)
	case *orExpr:
		return parallelSafeExpr(x.l) && parallelSafeExpr(x.r)
	case *notExpr:
		return parallelSafeExpr(x.e)
	case *betweenExpr:
		return parallelSafeExpr(x.e) && parallelSafeExpr(x.lo) && parallelSafeExpr(x.hi)
	case *inListExpr:
		return parallelSafeExpr(x.e) && exprsParallelSafe(x.list)
	case *likeExpr:
		return parallelSafeExpr(x.e) && parallelSafeExpr(x.pattern)
	case *isNullExpr:
		return parallelSafeExpr(x.e)
	case *caseExpr:
		for _, w := range x.whens {
			if !parallelSafeExpr(w.cond) || !parallelSafeExpr(w.then) {
				return false
			}
		}
		return parallelSafeExpr(x.els)
	case *extractExpr:
		return parallelSafeExpr(x.e)
	default:
		return false
	}
}
