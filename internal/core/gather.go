package core

import (
	"context"
	"fmt"
	"time"

	"apuama/internal/admission"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// gatherMsg is one message from a sub-query worker to the gather loop:
// either a batch of partial rows (batch != nil) or the end of an attempt
// (fin). Attempt IDs are unique across the whole query, so the gather
// can tell a retry's rows from its predecessor's and a hedge's from the
// original's.
type gatherMsg struct {
	idx     int
	attempt int64
	hedge   bool
	batch   *sqltypes.Batch // partial rows; ownership transfers to the receiver
	fin     bool            // attempt ended (success when err == nil)
	err     error
	retry   bool          // with fin+err: the worker is retrying, not giving up
	dur     time.Duration // with a successful fin: the attempt's stream time
}

// composeSink receives partial batches from the gather loop as they
// arrive. Attempts stream independently; commit fixes one attempt as a
// partition's winner, abort discards a failed or losing attempt, and
// finish composes the winners in partition order (floating-point
// composition is not associative across orderings, and LIMIT without
// ORDER BY takes the leading rows).
//
// All methods are called from the single gather goroutine; sinks need no
// locking. observe takes ownership of the batch and must return it to
// the pool.
type composeSink interface {
	observe(idx int, attempt int64, b *sqltypes.Batch) error
	commit(idx int, attempt int64) error
	abort(idx int, attempt int64) error
	finish(ctx context.Context) (*engine.Result, error)
}

// newComposeSink picks the composer route: the streaming fold for
// aggregate rewrites under the StreamCompose ablation, otherwise the
// paper's memdb (HSQLDB stand-in) load — skipped when the composition
// query has nothing to do. Every sink charges the memory it retains —
// buffered attempt rows, fold-table groups — against the query's
// admission reservation (a nil reservation is a no-op, so the sinks
// charge unconditionally).
func (e *Engine) newComposeSink(rw *Rewrite, n int, res *admission.Reservation) composeSink {
	if e.opts.StreamCompose && len(rw.ComposeOps) > 0 {
		return &foldSink{
			e: e, rw: rw, n: n, res: res,
			tables:    map[attemptKey]*foldTable{},
			winner:    make([]int64, n),
			committed: make([]bool, n),
		}
	}
	return &memdbSink{
		e: e, rw: rw, res: res,
		identity:  identityCompose(rw),
		bufs:      map[attemptKey][]sqltypes.Row{},
		winner:    make([]int64, n),
		committed: make([]bool, n),
	}
}

type attemptKey struct {
	idx     int
	attempt int64
}

// memdbSink buffers every live attempt's rows and composes once, at
// finish: the committed prefix's winners are loaded in partition order
// into one composition table that is dropped as soon as the composition
// query has run over it, so no relation outlives its query and an
// abandoned gather (error, deadline) never creates one.
type memdbSink struct {
	e   *Engine
	rw  *Rewrite
	res *admission.Reservation // memory-budget account for retained rows

	// identity marks a composition that is the concatenation itself; the
	// winners are then returned as they are, without a memdb round trip.
	identity bool

	bufs      map[attemptKey][]sqltypes.Row
	winner    []int64
	committed []bool
}

// identityCompose reports whether the composition query has nothing to
// do — it projects every partial column bare and in order, with no
// re-aggregation, DISTINCT, ordering or HAVING (what buildPlainRewrite
// emits for an unordered fetch) — so the result is the partial rows in
// partition order under the compose aliases, cut at LIMIT.
func identityCompose(rw *Rewrite) bool {
	c := rw.Compose
	if len(rw.ComposeOps) > 0 || c.Distinct || c.Where != nil || c.Having != nil ||
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
	s.bufs[k] = append(s.bufs[k], b.Rows...)
	sqltypes.PutBatch(b)
	return nil
}

func (s *memdbSink) commit(idx int, attempt int64) error {
	s.winner[idx] = attempt
	s.committed[idx] = true
	return nil
}

func (s *memdbSink) abort(idx int, attempt int64) error {
	delete(s.bufs, attemptKey{idx, attempt})
	return nil
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
		if rows := s.bufs[attemptKey{p, s.winner[p]}]; len(rows) > 0 {
			parts = append(parts, rows)
			total += len(rows)
		}
	}
	if !s.identity {
		return s.e.composeRows(ctx, s.rw, parts)
	}
	c := s.rw.Compose
	res := &engine.Result{Cols: make([]string, len(c.Items))}
	for i, it := range c.Items {
		res.Cols[i] = itemName(it)
	}
	if c.Limit != nil && *c.Limit < int64(total) {
		total = int(max(*c.Limit, 0))
	}
	res.Rows = make([]sqltypes.Row, 0, total)
	for _, rows := range parts {
		res.Rows = append(res.Rows, rows[:min(len(rows), total-len(res.Rows))]...)
	}
	return res, nil
}

// foldSink is the StreamCompose route for aggregate rewrites: each
// attempt folds into its own hash table as batches arrive; at finish the
// winners merge in partition order (same float-composition order as the
// materialized composer) and the composition query projects the folded
// rows.
type foldSink struct {
	e   *Engine
	rw  *Rewrite
	n   int
	res *admission.Reservation // memory-budget account for fold groups

	tables    map[attemptKey]*foldTable
	winner    []int64
	committed []bool
}

type foldGrp struct{ row sqltypes.Row }

type foldTable struct {
	buckets map[uint64][]*foldGrp
	order   []*foldGrp
}

func newFoldTable() *foldTable { return &foldTable{buckets: map[uint64][]*foldGrp{}} }

// add folds one partial row into the table, merging aggregates on a
// group-key hit. It reports whether a new group was created (a merge
// retains no extra memory; a creation clones the row).
func (t *foldTable) add(rw *Rewrite, row sqltypes.Row) (bool, error) {
	nG := rw.GroupCount
	if len(row) != nG+len(rw.ComposeOps) {
		return false, fmt.Errorf("partial row width %d, want %d", len(row), nG+len(rw.ComposeOps))
	}
	key := row[:nG]
	h := sqltypes.HashRow(key)
	for _, cand := range t.buckets[h] {
		if sqltypes.RowsEqual(cand.row[:nG], key) {
			for i, op := range rw.ComposeOps {
				merged, err := foldValues(op, cand.row[nG+i], row[nG+i])
				if err != nil {
					return false, err
				}
				cand.row[nG+i] = merged
			}
			return false, nil
		}
	}
	g := &foldGrp{row: row.Clone()}
	t.buckets[h] = append(t.buckets[h], g)
	t.order = append(t.order, g)
	return true, nil
}

func (s *foldSink) observe(idx int, attempt int64, b *sqltypes.Batch) error {
	k := attemptKey{idx, attempt}
	t := s.tables[k]
	if t == nil {
		t = newFoldTable()
		s.tables[k] = t
	}
	// Only created groups retain memory (merges fold in place), so the
	// reservation grows by the freshly cloned group rows per batch.
	var created int64
	for _, row := range b.Rows {
		fresh, err := t.add(s.rw, row)
		if err != nil {
			sqltypes.PutBatch(b)
			return err
		}
		if fresh {
			created += 24 + int64(len(row))*40
		}
	}
	sqltypes.PutBatch(b)
	return s.res.Grow(created)
}

func (s *foldSink) commit(idx int, attempt int64) error {
	s.winner[idx] = attempt
	s.committed[idx] = true
	return nil
}

func (s *foldSink) abort(idx int, attempt int64) error {
	delete(s.tables, attemptKey{idx, attempt})
	return nil
}

func (s *foldSink) finish(ctx context.Context) (*engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := newFoldTable()
	for p := 0; p < s.n; p++ {
		if !s.committed[p] {
			continue
		}
		t := s.tables[attemptKey{p, s.winner[p]}]
		if t == nil {
			continue // empty partition: no batches ever arrived
		}
		for _, g := range t.order {
			if _, err := merged.add(s.rw, g.row); err != nil {
				return nil, err
			}
		}
	}
	folded := make([]sqltypes.Row, 0, len(merged.order))
	for _, g := range merged.order {
		folded = append(folded, g.row)
	}
	// A scalar-aggregate query with no matching rows anywhere still
	// produces its single empty-aggregate row in the final projection.
	return s.e.composeRows(ctx, s.rw, [][]sqltypes.Row{folded})
}
