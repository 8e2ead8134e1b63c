package engine

import (
	"fmt"
	"testing"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// planSelect plans a top-level SELECT without placeholders under the
// node's own settings, serially.
func (n *Node) planSelect(stmt *sql.SelectStmt) (op, []string, error) {
	return n.planTop(stmt, &planInputs{})
}

// SetJoinTupleTest switches the join tuples' retention guard: poison
// overwrites an arena's tuples when it rewinds or is released, stable
// plans every join with slab tuples and no copying filter (the reference).
// Tests turn both off again when they finish.
func SetJoinTupleTest(poison, stable bool) {
	joinTupleTest.poison.Store(poison)
	joinTupleTest.stable.Store(stable)
}

// TupleHomes is what TupleReport found: how many tuple producers (hash
// joins and copying filters) cut per-batch tuples and how many cut them
// from a keeper's arena, how many aggregates cut their rows from their own
// arena, and a line for each producer whose home does not fit its
// consumer.
type TupleHomes struct {
	PerBatch, Kept, ArenaAggregates int
	Bad                             []string
}

// TupleReport plans sel and walks every
// operator, sub-plans included, checking each producer's home against its
// consumer (a filter that does not copy passes its child's rows on, so the
// child's consumer is the filter's): per-batch tuples for a consumer other
// than an aggregate, a projection, a join's probe side, a nested loop's
// outer side or a copying filter; an arena its consumer does not own; slab
// tuples for anything but a plan or sub-plan root. An aggregate's arena
// rows count as per-batch tuples, so they may reach neither a root nor a
// keeper.
func (nd *Node) TupleReport(sel *sql.SelectStmt) (homes TupleHomes, err error) {
	root, _, err := nd.planSelect(sel)
	if err != nil {
		return homes, err
	}
	bad := func(format string, args ...any) { homes.Bad = append(homes.Bad, fmt.Sprintf(format, args...)) }
	check := func(h *tupleHome, what, consumer string, keeper *tupleArena) {
		switch {
		case h.perBatch:
			if consumer != "aggregate" && consumer != "projection" && consumer != "probe side" && consumer != "nested loop outer" && consumer != "copying filter" {
				bad("%s with per-batch tuples feeds its %s", what, consumer)
			}
		case h.keeper != nil:
			if h.keeper != keeper {
				bad("%s cuts its tuples from an arena its %s does not own", what, consumer)
			}
		case consumer != "plan root" && consumer != "sub-plan run":
			bad("%s with slab tuples feeds its %s", what, consumer)
		}
	}
	tuples := func(h *tupleHome, what, consumer string, keeper *tupleArena) {
		check(h, what, consumer, keeper)
		switch {
		case h.perBatch:
			homes.PerBatch++
		case h.keeper != nil:
			homes.Kept++
		}
	}
	aggregate := func(h *tupleHome, consumer string, keeper *tupleArena) {
		check(h, "an aggregate", consumer, keeper)
		if h.perBatch {
			homes.ArenaAggregates++
		}
	}
	var walk func(o op, consumer string, keeper *tupleArena)
	var exprs func(es ...bexpr)
	exprs = func(es ...bexpr) {
		for _, e := range es {
			switch x := e.(type) {
			case *existsExpr:
				walk(x.sub.root, "sub-plan run", nil)
			case *inSubExpr:
				exprs(x.e)
				walk(x.sub.root, "sub-plan run", nil)
			case *scalarSubExpr:
				walk(x.sub.root, "sub-plan run", nil)
			case *binExpr:
				exprs(x.l, x.r)
			case *cmpExpr:
				exprs(x.l, x.r)
			case *andExpr:
				exprs(x.l, x.r)
			case *orExpr:
				exprs(x.l, x.r)
			case *negExpr:
				exprs(x.e)
			case *notExpr:
				exprs(x.e)
			case *isNullExpr:
				exprs(x.e)
			case *extractExpr:
				exprs(x.e)
			case *betweenExpr:
				exprs(x.e, x.lo, x.hi)
			case *inListExpr:
				exprs(append([]bexpr{x.e}, x.list...)...)
			case *likeExpr:
				exprs(x.e, x.pattern)
			case *caseExpr:
				for _, w := range x.whens {
					exprs(w.cond, w.then)
				}
				exprs(x.els)
			}
		}
	}
	walk = func(o op, consumer string, keeper *tupleArena) {
		switch v := o.(type) {
		case *hashJoinOp:
			tuples(&v.out, fmt.Sprintf("a join (%d of %d cols)", len(v.probeSel)+len(v.buildSel), v.inCols), consumer, keeper)
			walk(v.probe, "probe side", nil)
			walk(v.build, "build side", &v.kept)
		case *nestedLoopOp:
			exprs(v.cond)
			walk(v.outer, "nested loop outer", nil)
			walk(v.inner, "nested loop inner", nil)
		case *filterOp:
			exprs(v.cond)
			if !v.copies {
				walk(v.child, consumer, keeper)
				break
			}
			tuples(&v.out, "a copying filter", consumer, keeper)
			walk(v.child, "copying filter", nil)
		case *projectOp:
			exprs(v.items...)
			walk(v.child, "projection", nil)
		case *aggOp:
			aggregate(&v.out, consumer, keeper)
			exprs(v.groups...)
			for _, a := range v.aggs {
				exprs(a.arg)
			}
			walk(v.child, "aggregate", nil)
		case *sortOp:
			walk(v.child, "sort", nil)
		case *limitOp:
			walk(v.child, "limit", nil)
		case *distinctOp:
			walk(v.child, "distinct", nil)
		case *seqScanOp:
			exprs(v.filter)
		case *indexScanOp:
			exprs(v.filter)
		case *colScanOp:
			exprs(v.filter)
			if v.fallback != nil {
				walk(v.fallback, consumer, keeper)
			}
		case *sharedScanOp:
			exprs(v.filter)
			walk(v.fallback, consumer, keeper)
		}
	}
	walk(root, "plan root", nil)
	return homes, nil
}

// QueryStmtWideJoins is QueryStmtAt with join-tuple narrowing off for the
// statement's own joins: planOver is handed the nil needed set, so every
// join carries every input column, as before narrowing existed. The
// narrowing test compares QueryStmtAt against it.
func (nd *Node) QueryStmtWideJoins(sel *sql.SelectStmt, snapshot int64) (*Result, error) {
	var params []bexpr
	var fp fromPlan
	if err := nd.planFrom(&fp, sel, nil, &params, nil); err != nil {
		return nil, err
	}
	root, cols, err := nd.planOver(sel, &fp, nil)
	if err != nil {
		return nil, err
	}
	ex := &execCtx{node: nd, snapshot: snapshot, meter: nd.meter}
	if err := root.open(ex); err != nil {
		return nil, err
	}
	defer root.close()
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	var rows []sqltypes.Row
	for {
		b.Reset()
		if err := root.next(ex, b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return &Result{Cols: cols, Rows: rows}, nil
		}
		rows = append(rows, b.Rows...)
	}
}

// RaceEnabled reports a -race build, under which sync.Pool drops buffers
// and the allocation pins skip themselves.
const RaceEnabled = raceEnabled

// BytesPer is bytesPer for the external tests: the heap a run allocates,
// the least of three logged rounds of runs after a warm-up run.
func BytesPer(t *testing.T, runs int, run func()) float64 {
	t.Helper()
	return bytesPer(t, runs, run)
}
