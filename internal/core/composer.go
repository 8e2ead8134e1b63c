package core

import (
	"context"
	"fmt"

	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// ctxCheckRows is how many rows the composer loads between context
// checks: frequent enough to abandon a large merge soon after the query
// deadline passes, cheap enough to be invisible.
const ctxCheckRows = 1024

// composeRows loads the partial rows, part by part, into a composition
// table that lives only for this call, and runs the composition query
// over it, honouring ctx between chunks.
func (e *Engine) composeRows(ctx context.Context, rw *Rewrite, parts [][]sqltypes.Row) (*engine.Result, error) {
	ld := e.mem.NewLoader("svp", rw.PartialCols)
	defer ld.Drop()
	for _, rows := range parts {
		for len(rows) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			chunk := rows[:min(len(rows), ctxCheckRows)]
			if err := ld.Append(chunk); err != nil {
				return nil, fmt.Errorf("composer: %w", err)
			}
			rows = rows[len(chunk):]
		}
	}
	name, err := ld.Finish()
	if err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	return e.composeLoaded(rw, name)
}

// composeLoaded runs the composition query over an already-loaded table.
func (e *Engine) composeLoaded(rw *Rewrite, name string) (*engine.Result, error) {
	compose := sql.CloneSelect(rw.Compose)
	compose.From[0].Name = name
	res, err := e.mem.QueryStmt(compose)
	if err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	return res, nil
}

// foldValues merges two partial aggregate values. NULLs (empty-partition
// sums) are absorbed.
func foldValues(op string, a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.IsNull() {
		return b, nil
	}
	if b.IsNull() {
		return a, nil
	}
	switch op {
	case "sum":
		return sqltypes.Add(a, b)
	case "min":
		if sqltypes.Compare(b, a) < 0 {
			return b, nil
		}
		return a, nil
	case "max":
		if sqltypes.Compare(b, a) > 0 {
			return b, nil
		}
		return a, nil
	default:
		return sqltypes.Null(), fmt.Errorf("composer: unknown fold %q", op)
	}
}
