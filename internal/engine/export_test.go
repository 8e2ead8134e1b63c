package engine

import (
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

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
