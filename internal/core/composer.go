package core

import (
	"context"

	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/sqltypes"
)

// ctxCheckRows is how many rows the composer loads between context
// checks: frequent enough to abandon a large merge soon after the query
// deadline passes, cheap enough to be invisible.
const ctxCheckRows = 1024

// composeRows loads the partial rows, part by part, into a composition
// table the shape keeps that their column kinds fit and runs the
// composition prepared over it, honouring ctx between chunks. The table
// goes back to the shape truncated, holding no row.
func (e *Engine) composeRows(ctx context.Context, sh *shape, parts [][]sqltypes.Row) (*engine.Result, error) {
	kinds := memdb.InferKinds(len(sh.rw.PartialCols), parts...)
	tb, err := sh.takeTable(e.mem, kinds)
	if err != nil {
		return nil, composerErr(err)
	}
	defer sh.putTable(tb)
	for _, rows := range parts {
		for len(rows) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			chunk := rows[:min(len(rows), ctxCheckRows)]
			if err := tb.Load(chunk, kinds); err != nil {
				return nil, composerErr(err)
			}
			rows = rows[len(chunk):]
		}
	}
	res, err := tb.Compose()
	if err != nil {
		return nil, composerErr(err)
	}
	return res, nil
}
