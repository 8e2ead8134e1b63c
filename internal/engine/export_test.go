package engine

import (
	"fmt"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// SetJoinTupleTest switches the reusing joins' retention guard: poison
// overwrites a reusing join's previous tuples at the start of every next,
// stable plans every join with slab tuples (the reference). Tests turn
// both off again when they finish.
func SetJoinTupleTest(poison, stable bool) {
	joinTupleTest.poison.Store(poison)
	joinTupleTest.stable.Store(stable)
}

// ReuseReport plans sel — parallelized when degree > 1 — and walks every
// operator, sub-plans included. It returns how many hash joins reuse their
// tuples and a line for each one whose direct consumer is not an
// aggregate, a projection or a join's probe side.
func (nd *Node) ReuseReport(sel *sql.SelectStmt, degree int) (reusing int, bad []string, err error) {
	root, _, err := nd.planSelect(sel)
	if err != nil {
		return 0, nil, err
	}
	if degree > 1 {
		root = parallelizePlan(nd, root, degree, false)
	}
	var walk func(o op, consumer string)
	var exprs func(es ...bexpr)
	exprs = func(es ...bexpr) {
		for _, e := range es {
			switch x := e.(type) {
			case *existsExpr:
				walk(x.sub.root, "sub-plan run")
			case *inSubExpr:
				exprs(x.e)
				walk(x.sub.root, "sub-plan run")
			case *scalarSubExpr:
				walk(x.sub.root, "sub-plan run")
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
	walk = func(o op, consumer string) {
		switch v := o.(type) {
		case *hashJoinOp:
			if v.reuse {
				reusing++
				if consumer != "aggregate" && consumer != "projection" && consumer != "probe side" {
					bad = append(bad, fmt.Sprintf("a reusing join (%d of %d cols) feeds its %s", len(v.probeSel)+len(v.buildSel), v.inCols, consumer))
				}
			}
			walk(v.probe, "probe side")
			walk(v.build, "build side")
		case *nestedLoopOp:
			exprs(v.cond)
			walk(v.outer, "nested loop")
			walk(v.inner, "nested loop")
		case *filterOp:
			exprs(v.cond)
			walk(v.child, "filter")
		case *projectOp:
			exprs(v.items...)
			walk(v.child, "projection")
		case *aggOp:
			exprs(v.groups...)
			for _, a := range v.aggs {
				exprs(a.arg)
			}
			walk(v.child, "aggregate")
		case *sortOp:
			walk(v.child, "sort")
		case *limitOp:
			walk(v.child, "limit")
		case *distinctOp:
			walk(v.child, "distinct")
		case *seqScanOp:
			exprs(v.filter)
		case *indexScanOp:
			exprs(v.filter)
		case *colScanOp:
			exprs(v.filter)
			if v.fallback != nil {
				walk(v.fallback, consumer)
			}
		case *sharedScanOp:
			exprs(v.filter)
			walk(v.fallback, consumer)
		}
	}
	walk(root, "plan root")
	return reusing, bad, nil
}

// QueryStmtWideJoins is QueryStmtAt with join-tuple narrowing off for the
// statement's own joins: planOver is handed the nil needed set, so every
// join carries every input column, as before narrowing existed. degree is
// the explicit parallel degree (1 = serial). The narrowing test compares
// QueryStmtAt against it.
func (nd *Node) QueryStmtWideJoins(sel *sql.SelectStmt, snapshot int64, degree int) (*Result, error) {
	var params []bexpr
	var fp fromPlan
	if err := nd.planFrom(&fp, sel, nil, &params); err != nil {
		return nil, err
	}
	root, cols, err := nd.planOver(sel, &fp, nil)
	if err != nil {
		return nil, err
	}
	if degree > 1 {
		root = parallelizePlan(nd, root, degree, false)
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
