package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"apuama/internal/admission"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// admitAndRun wraps one real SVP execution with the overload-protection
// envelope (see DESIGN.md "Overload & graceful degradation"):
//
//   - the admission gate bounds concurrent SVP queries, queueing briefly
//     and shedding with a typed retryable error when saturated (cache
//     hits and shared singleflight followers bypass it — absorption is
//     exactly what the cache is for under load);
//   - the slow-query killer tracks the query's wall clock against its
//     weight-scaled class budget and cancels it cooperatively via the
//     per-batch ctx checks in the node engines' scans;
//   - the memory reservation charges the query's composition memory
//     (gather buffers, the compose sink's buffered attempt rows)
//     against the cluster-wide budget.
//
// All three are no-ops when admission is disabled (e.adm == nil).
func (e *Engine) admitAndRun(ctx context.Context, plan queryPlan, usePartial bool) (*engine.Result, int64, error) {
	// MQO batching window: hold briefly so a burst of overlapping
	// queries enters the engine together and lands in one shared scan
	// pass. Nil-safe, off when unconfigured, and off under brownout.
	e.adm.BatchGate(ctx)
	if e.adm == nil {
		return e.execSVP(ctx, plan, usePartial, nil)
	}
	w := queryWeight(plan.sel)
	tk, err := e.adm.Acquire(ctx, w)
	if err != nil {
		return nil, 0, err
	}
	defer tk.Release()
	qspan := obs.SpanFrom(ctx)
	if wait := tk.Wait(); wait > 0 {
		qspan.Annotate("admission_wait", wait.String())
	}
	if lvl := e.adm.Level(); lvl > 0 {
		qspan.Annotate("brownout_level", strconv.Itoa(lvl))
	}
	ctx, finish := e.adm.Track(ctx, w)
	defer finish()
	res := e.adm.Reserve(ctx)
	defer res.Release()
	out, snap, err := e.execSVP(ctx, plan, usePartial, res)
	if err != nil && errors.Is(context.Cause(ctx), admission.ErrSlowQuery) {
		// The killer cancelled the query; surface the typed cause instead
		// of the bare context error the abandoned gather reported.
		return nil, 0, fmt.Errorf("%w (%v)", admission.ErrSlowQuery, err)
	}
	return out, snap, err
}

// queryWeight classifies a query for the admission gate: how many
// capacity slots it occupies and the multiplier on its slow-kill class
// budget. Heavier shapes (aggregation, distinct/sort composition) cost
// proportionally more of both.
func queryWeight(sel *sql.SelectStmt) int {
	w := 1
	if len(sel.GroupBy) > 0 || hasAggregate(sel) {
		w++
	}
	if sel.Distinct || len(sel.OrderBy) > 0 {
		w++
	}
	return w
}

// hasAggregate reports whether any projection is an aggregate call.
func hasAggregate(sel *sql.SelectStmt) bool {
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*sql.FuncExpr); ok {
			return true
		}
	}
	return false
}

// gatherSlotBytes is the per-slot memory charge for the gather channel:
// each slot can hold one full batch in flight between a node stream and
// the composer (DefaultBatchCapacity rows at a conservative ~64 bytes).
const gatherSlotBytes = int64(sqltypes.DefaultBatchCapacity) * 64

// rowsBytes estimates the resident size of retained partial rows — the
// unit the composition sinks charge against the memory budget. Row
// values are interface-boxed; ~40 bytes per value plus the slice header
// tracks the real footprint closely enough for budgeting.
func rowsBytes(rows []sqltypes.Row) int64 {
	var n int64
	for _, r := range rows {
		n += 24 + int64(len(r))*40
	}
	return n
}
