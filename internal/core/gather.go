package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"apuama/internal/admission"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// gatherMsg is one message from a sub-query worker to the gather loop:
// either a batch of partial rows (batch != nil) or the end of an attempt
// (fin). Attempt IDs are unique across the whole query, so the gather
// can tell a retry's rows from its predecessor's.
type gatherMsg struct {
	idx     int
	attempt int64
	batch   *sqltypes.Batch // partial rows; ownership transfers to the receiver
	fin     bool            // attempt ended (success when err == nil)
	err     error
	retry   bool // with fin+err: the worker is retrying, not giving up
	// rows, with fin, is the arena the attempt's rows were cut from (nil:
	// heap rows). The node has finished writing into it; the receiver owns
	// it now.
	rows *engine.RowArena
}

// gatherState is the gather stage's bookkeeping, on the controller
// goroutine only: which partitions are settled and by how many rows, and
// each live attempt's rows.
type gatherState struct {
	r     *svpRun
	sink  *memdbSink
	span  *obs.Span
	start time.Time

	done      []bool  // partition settled: its winner is committed
	doneRows  []int64 // the winner's row count
	completed int
	totalRows int64
	// rowsByAttempt counts each live attempt's rows; keepRows retains them
	// when the partial cache is on, so a winner can fill it (rows outlive
	// the pooled batch — the batch ownership contract).
	rowsByAttempt map[int64]int64
	keepRows      map[int64][]sqltypes.Row
	sawBatch      bool
	// earlyStop: a pushed-down LIMIT with no global ordering or DISTINCT
	// is settled once the committed partition prefix holds k rows.
	earlyStop, settled bool
}

// gather is the collection stage (span gather). Batches feed the composer
// sink as they arrive, but the sink commits in partition order: float
// aggregates are not associative, and that merge rule is what keeps
// results bit-identical across schedules, steals and requeues. Each
// partition has one live attempt at a time, so the first success settles
// it; a slow node's unclaimed partitions are stolen by the others. It
// returns the sink holding every partition's winner, or a settled LIMIT
// prefix.
func (r *svpRun) gather(resv *admission.Reservation) (*memdbSink, error) {
	e, rw, n := r.e, r.plan.rw, len(r.plan.ranges)
	span := r.qspan.Phase("gather")
	// End keeps the first duration: the explicit End on success wins.
	defer span.End()
	g := &gatherState{r: r, span: span, start: time.Now(),
		done: make([]bool, n), doneRows: make([]int64, n),
		rowsByAttempt: map[int64]int64{},
		earlyStop:     rw.PushedLimit > 0 && len(rw.Compose.OrderBy) == 0 && !rw.Compose.Distinct,
	}
	g.sink = e.newComposeSink(r.plan.shape, n, resv)
	if r.src != nil {
		g.keepRows = map[int64][]sqltypes.Row{}
	}
	if err := g.feedCached(); err != nil {
		return nil, err
	}
	for !g.settled && g.completed < n {
		var err error
		select {
		case m := <-r.msgs:
			err = g.receive(m)
		case <-r.sch.failedC():
			// Some partition has no live untried node left, or every
			// worker retired with work pending.
			err = g.fail(r.sch.Err())
		case <-r.ctx.Done():
			err = g.fail(r.ctx.Err())
		}
		if err != nil {
			return nil, err
		}
	}
	span.End()
	e.m.gather.Observe(time.Since(g.start))
	e.net.Charge(time.Duration(g.totalRows) * e.net.Config().NetPerRow)
	e.net.Flush()
	e.st.composedRows.Add(g.totalRows)
	e.mirrorBatchPool()
	return g.sink, nil
}

// feedCached commits the warm partitions as synthetic attempts — the same
// observe/commit path as streamed rows, so partition-order composition
// and LIMIT accounting are unchanged.
func (g *gatherState) feedCached() error {
	for i, s := range g.r.src {
		if !s.hit {
			continue
		}
		attempt := g.r.attemptSeq.Add(1)
		b := sqltypes.GetBatch()
		b.Rows = append(b.Rows, s.rows...)
		if err := g.sink.observe(i, attempt, b); err != nil {
			return composerErr(err)
		}
		g.sink.commit(i, attempt, nil)
		g.done[i], g.doneRows[i] = true, int64(len(s.rows))
		g.totalRows += g.doneRows[i]
		g.completed++
	}
	if g.earlyStop && g.completed < len(g.done) && prefixHolds(g.done, g.doneRows, g.r.plan.rw.PushedLimit) {
		g.stopAtLimit()
	}
	return nil
}

// receive handles one message from an attempt.
func (g *gatherState) receive(m gatherMsg) error {
	switch {
	case m.batch != nil:
		return g.onBatch(m)
	case m.retry:
		// Abandoned: the partition is retried or requeued (or the schedule
		// failed, which the gather loop learns from failedC).
		g.drop(m)
		return nil
	case m.err != nil:
		g.drop(m)
		return g.fail(m.err)
	default:
		return g.onFinish(m)
	}
}

func (g *gatherState) onBatch(m gatherMsg) error {
	e := g.r.e
	if !g.sawBatch {
		g.sawBatch = true
		d := time.Since(g.start)
		e.m.firstBatch.Observe(d)
		g.span.Annotate("first_batch", d.String())
	}
	nb := int64(m.batch.Len())
	e.st.streamedBatches.Inc()
	e.st.streamedRows.Add(nb)
	g.rowsByAttempt[m.attempt] += nb
	if g.keepRows != nil {
		g.keepRows[m.attempt] = append(g.keepRows[m.attempt], m.batch.Rows...)
	}
	if err := g.sink.observe(m.idx, m.attempt, m.batch); err != nil {
		return composerErr(err)
	}
	return nil
}

// drop discards an abandoned or failed attempt's rows.
func (g *gatherState) drop(m gatherMsg) {
	delete(g.rowsByAttempt, m.attempt)
	delete(g.keepRows, m.attempt)
	g.sink.abort(m.idx, m.attempt, m.rows)
}

// onFinish settles a partition on its attempt's success. A partition
// has one live attempt at a time — a retry or requeue starts only after
// its predecessor's fin — so the first success is the only one.
func (g *gatherState) onFinish(m gatherMsg) error {
	g.done[m.idx] = true
	g.completed++
	g.doneRows[m.idx] = g.rowsByAttempt[m.attempt]
	g.totalRows += g.doneRows[m.idx]
	delete(g.rowsByAttempt, m.attempt)
	g.sink.commit(m.idx, m.attempt, m.rows)
	g.fillPartial(m)
	if g.earlyStop && prefixHolds(g.done, g.doneRows, g.r.plan.rw.PushedLimit) {
		g.stopAtLimit()
	}
	return nil
}

// fillPartial caches a winner's rows and, when this query leads the
// partition's flight, publishes them to the followers and retires the
// leadership (abortFlights then leaves it alone). A partition served by
// another query's leader is that leader's to fill.
func (g *gatherState) fillPartial(m gatherMsg) {
	if g.keepRows == nil {
		return
	}
	rows := g.keepRows[m.attempt]
	delete(g.keepRows, m.attempt)
	r, s := g.r, &g.r.src[m.idx]
	if s.follow != nil {
		return
	}
	lo, hi := r.plan.ranges[m.idx][0], r.plan.ranges[m.idx][1]
	r.e.cache.FillPartial(r.plan.partialFP, lo, hi, r.snapshot, rows)
	if s.lead {
		r.e.cache.FinishPartialFlight(r.plan.partialFP, lo, hi, r.snapshot, rows)
		s.lead = false
	}
}

// stopAtLimit ends the gather at a settled LIMIT prefix and cancels the
// sub-queries still running.
func (g *gatherState) stopAtLimit() {
	g.settled = true
	g.r.e.st.limitShortCircuits.Inc()
	g.r.cancelWork()
}

// fail is the verdict on a query that cannot finish: its own deadline or
// cancellation abandons it, anything else fails it.
func (g *gatherState) fail(cause error) error {
	if err := g.r.e.deadlineErr(cause); err != nil {
		return err
	}
	return fmt.Errorf("sub-query failed: %w", cause)
}

func composerErr(err error) error { return fmt.Errorf("composer: %w", err) }

// prefixHolds reports whether the committed prefix of partitions already
// holds at least k rows (the early-stop condition of a pushed-down LIMIT).
func prefixHolds(done []bool, rows []int64, k int64) bool {
	var sum int64
	for i := range done {
		if !done[i] {
			return false
		}
		sum += rows[i]
		if sum >= k {
			return true
		}
	}
	return false
}

// memdbSink is the result composer (the paper's HSQLDB load, here
// internal/memdb). It receives partial batches from the gather loop as
// they arrive. Attempts stream independently; commit fixes one attempt as
// a partition's winner, abort discards a failed or losing attempt, and
// finish composes the winners once, in partition order (floating-point
// composition is not associative across orderings, and LIMIT without
// ORDER BY takes the leading rows). The committed prefix's winners are
// loaded into a composition table the query's shape keeps, which is
// truncated as soon as the composition query has run over it, so no row
// outlives its query in memdb and an abandoned gather (error, deadline)
// never loads one.
//
// All methods are called from the single gather goroutine; the sink needs
// no locking. observe takes ownership of the batch and returns it to the
// pool.
//
// Row lifetime: an attempt's rows live in its arena (gatherMsg.rows) and
// the sink lists their headers per attempt, in pooled lists. abort hands a
// dropped attempt's arena and list back at once; the winners' arenas and
// lists travel with the result — the identity result is made of their
// rows, and memdb stores partial rows by reference — and the result's
// Release hands them back. When a cache is on (pooled false) nothing
// carries a hook: the attempts cut heap rows, and the result, which the
// cache may keep or share, is left to the garbage collector.
type memdbSink struct {
	e   *Engine
	sh  *shape
	res *admission.Reservation // memory-budget account for retained rows

	pooled bool // no cache is on: the result hands the rows' pooled memory back

	bufs      map[attemptKey]*[]sqltypes.Row // from rowLists
	winner    []int64                        // each partition's committed attempt
	committed []bool
	kept      []*engine.RowArena // the committed winners' arenas
}

// rowLists recycles the sink's per-attempt lists of row headers, and the
// identity result's row list.
var rowLists = sync.Pool{New: func() any { return new([]sqltypes.Row) }}

// putRowList hands a list back, cleared so it pins no row while pooled.
func putRowList(l *[]sqltypes.Row) {
	clear(*l)
	*l = (*l)[:0]
	rowLists.Put(l)
}

type attemptKey struct {
	idx     int
	attempt int64
}

// newComposeSink builds the sink for one query of shape sh and n
// partitions. It charges the rows it buffers against the query's
// admission reservation (a nil reservation is a no-op, so it charges
// unconditionally).
func (e *Engine) newComposeSink(sh *shape, n int, res *admission.Reservation) *memdbSink {
	return &memdbSink{
		e: e, sh: sh, res: res,
		pooled:    e.cache == nil,
		bufs:      map[attemptKey]*[]sqltypes.Row{},
		winner:    make([]int64, n),
		committed: make([]bool, n),
	}
}

// identityCompose reports whether the composition query has nothing to
// do — it projects every partial column bare and in order, with no
// re-aggregation, DISTINCT, ordering or HAVING (what buildPlainRewrite
// emits for an unordered fetch) — so the result is the partial rows in
// partition order under the compose aliases, cut at LIMIT.
func identityCompose(rw *Rewrite) bool {
	c := rw.Compose
	if c.Distinct || c.Where != nil || c.Having != nil ||
		len(c.OrderBy) > 0 || len(c.GroupBy) > 0 || len(c.Items) != len(rw.PartialCols) {
		return false
	}
	for i, it := range c.Items {
		cr, ok := it.Expr.(*sql.ColumnRef)
		if !ok || cr.Table != "" || cr.Name != rw.PartialCols[i] {
			return false
		}
	}
	return true
}

func (s *memdbSink) observe(idx int, attempt int64, b *sqltypes.Batch) error {
	// The sink retains every row it buffers, so each arriving batch grows
	// the query's memory reservation before it is kept.
	if err := s.res.Grow(rowsBytes(b.Rows)); err != nil {
		sqltypes.PutBatch(b)
		return err
	}
	k := attemptKey{idx, attempt}
	l := s.bufs[k]
	if l == nil {
		l = rowLists.Get().(*[]sqltypes.Row)
		s.bufs[k] = l
	}
	*l = append(*l, b.Rows...)
	sqltypes.PutBatch(b)
	return nil
}

// commit fixes an attempt as its partition's winner; the sink keeps its
// arena until the result is released.
func (s *memdbSink) commit(idx int, attempt int64, rows *engine.RowArena) {
	s.winner[idx] = attempt
	s.committed[idx] = true
	if rows != nil {
		s.kept = append(s.kept, rows)
	}
}

// abort drops an attempt's rows and returns their charge, so a failover
// is not billed for the attempt it replaces, and hands its arena back.
func (s *memdbSink) abort(idx int, attempt int64, rows *engine.RowArena) {
	k := attemptKey{idx, attempt}
	if l := s.bufs[k]; l != nil {
		s.res.Shrink(rowsBytes(*l))
		putRowList(l)
		delete(s.bufs, k)
	}
	rows.Release()
}

func (s *memdbSink) finish(ctx context.Context) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The committed prefix: every partition, unless a settled LIMIT stopped
	// the gather early — then the prefix already holds the leading k rows.
	var parts [][]sqltypes.Row
	total := 0
	for p := 0; p < len(s.committed) && s.committed[p]; p++ {
		if l := s.bufs[attemptKey{p, s.winner[p]}]; l != nil && len(*l) > 0 {
			parts = append(parts, *l)
			total += len(*l)
		}
	}
	if !s.sh.identity { // the identity composition returns the winners without a memdb round trip
		res, err := s.e.composeRows(ctx, s.sh, parts)
		if err != nil {
			s.releaseTo(nil, nil)
			return nil, err
		}
		s.releaseTo(res, nil)
		return res, nil
	}
	c := s.sh.rw.Compose
	res := &engine.Result{Cols: make([]string, len(c.Items))}
	for i, it := range c.Items {
		res.Cols[i] = itemName(it)
	}
	if c.Limit != nil && *c.Limit < int64(total) {
		total = int(max(*c.Limit, 0))
	}
	var list *[]sqltypes.Row
	if len(parts) == 1 {
		res.Rows = parts[0][:total] // the winner's own list
	} else {
		list = rowLists.Get().(*[]sqltypes.Row)
		for _, rows := range parts {
			*list = append(*list, rows[:min(len(rows), total-len(*list))]...)
		}
		res.Rows = *list
	}
	s.releaseTo(res, list)
	return res, nil
}

// releaseTo gives res the hook that hands back what its rows live in: the
// winners' arenas, the sink's row lists and list, the identity result's
// own. A nil res hands them back at once. Without pooling it does nothing.
func (s *memdbSink) releaseTo(res *engine.Result, list *[]sqltypes.Row) {
	if !s.pooled {
		return
	}
	kept, bufs := s.kept, s.bufs
	release := func() {
		for _, a := range kept {
			a.Release()
		}
		for _, l := range bufs {
			putRowList(l)
		}
		if list != nil {
			putRowList(list)
		}
	}
	if res == nil {
		release()
		return
	}
	res.OnRelease(release)
}
