package engine

import (
	"fmt"
	"strings"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// Explain plans a SELECT and renders the operator tree, one line per
// node, PostgreSQL-style. It is the observability hook the shell and
// tests use to verify planner decisions (index vs sequential scan, join
// order, build sides). The parallel degree resolves from the node
// default, as in a query run without per-query overrides; use
// ExplainOpts to see the plan a specific QueryOpts would execute.
func (nd *Node) Explain(sel *sql.SelectStmt) (*Result, error) {
	return nd.ExplainOpts(sel, QueryOpts{})
}

// ExplainOpts renders the plan exactly as QueryStmtAt would execute it
// under the same QueryOpts — in particular the parallel degree resolves
// through the identical resolveParallelism(opts.Parallelism) call, so
// the explained gather degree never diverges from the executed one.
func (nd *Node) ExplainOpts(sel *sql.SelectStmt, opts QueryOpts) (*Result, error) {
	root, _, err := nd.planSelect(sel)
	if err != nil {
		return nil, err
	}
	if degree, gated := nd.resolveParallelism(opts.Parallelism); degree > 1 {
		root = parallelizePlan(nd, root, degree, gated)
	}
	var lines []string
	describe(root, 0, &lines)
	res := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(l)})
	}
	return res, nil
}

// describe renders one operator and recurses into its inputs.
func describe(o op, depth int, out *[]string) {
	pad := strings.Repeat("  ", depth)
	add := func(format string, args ...any) {
		*out = append(*out, pad+fmt.Sprintf(format, args...))
	}
	switch o := o.(type) {
	case *seqScanOp:
		f := ""
		if o.filter != nil {
			f = " (filtered)"
		}
		add("Seq Scan on %s%s", o.rel.Name, f)
	case *indexScanOp:
		add("Index Scan using %s on %s%s", o.index.Name, o.rel.Name, describeBounds(o.bounds))
	case *colScanOp:
		add("Columnar Seq Scan on %s (%s)", o.rel.Name, staticPrune(o))
	case *sharedScanOp:
		if col, ok := o.fallback.(*colScanOp); ok {
			add("Shared Columnar Scan on %s (%s)", o.rel.Name, staticPrune(col))
		} else {
			add("Shared Columnar Scan on %s", o.rel.Name)
		}
	case *filterOp:
		add("Filter")
		describe(o.child, depth+1, out)
	case *hashJoinOp:
		add("Hash Join (%d key[s], %d of %d cols)", len(o.probeKeys), len(o.probeSel)+len(o.buildSel), o.inCols)
		describe(o.probe, depth+1, out)
		*out = append(*out, pad+"  Hash (build)")
		describe(o.build, depth+2, out)
	case *nestedLoopOp:
		add("Nested Loop")
		describe(o.outer, depth+1, out)
		describe(o.inner, depth+1, out)
	case *aggOp:
		if len(o.groups) == 0 {
			add("Aggregate (%d expr[s])", len(o.aggs))
		} else {
			add("HashAggregate (%d group key[s], %d aggregate[s])", len(o.groups), len(o.aggs))
		}
		describe(o.child, depth+1, out)
	case *sortOp:
		add("Sort (%d key[s])", len(o.keys))
		describe(o.child, depth+1, out)
	case *limitOp:
		add("Limit %d", o.n)
		describe(o.child, depth+1, out)
	case *distinctOp:
		add("Unique")
		describe(o.child, depth+1, out)
	case *projectOp:
		add("Project (%d column[s])", len(o.items))
		describe(o.child, depth+1, out)
	case *parallelAggOp:
		add("Gather (parallel degree %d, merge at partial aggregate)", o.degree)
		if len(o.groups) == 0 {
			*out = append(*out, pad+fmt.Sprintf("  Partial Aggregate (%d expr[s])", len(o.aggs)))
		} else {
			*out = append(*out, pad+fmt.Sprintf("  Partial HashAggregate (%d group key[s], %d aggregate[s])", len(o.groups), len(o.aggs)))
		}
		describeFragment(o.frag, depth+2, out)
	case *parallelScanOp:
		add("Gather (parallel degree %d, merge at scan)", o.degree)
		describeFragment(o.frag, depth+1, out)
	default:
		add("%T", o)
	}
}

// describeFragment renders a gather operator's worker-side pipeline.
func describeFragment(f *fragSpec, depth int, out *[]string) {
	d := depth
	line := func(format string, args ...any) {
		*out = append(*out, strings.Repeat("  ", d)+fmt.Sprintf(format, args...))
	}
	if f.project != nil {
		line("Project (%d column[s])", len(f.project))
		d++
	}
	for range f.filters {
		line("Filter")
		d++
	}
	if f.index == nil {
		flt := ""
		if f.scanFilter != nil {
			flt = " (filtered)"
		}
		if f.columnar {
			line("Parallel Columnar Seq Scan on %s%s", f.rel.Name, flt)
			return
		}
		line("Parallel Seq Scan on %s%s", f.rel.Name, flt)
		return
	}
	line("Parallel Index Scan using %s on %s%s", f.index.Name, f.rel.Name, describeBounds(f.bounds))
}

// staticPrune renders a columnar scan's zone-map pruning against the
// relation's currently loaded segment generation. EXPLAIN has no
// execution context, so only parameter-free constants participate (a
// paramExpr would need runtime bindings to evaluate); if no generation
// is loaded yet the count is unknown.
func staticPrune(o *colScanOp) string {
	set := o.rel.LoadedSegments()
	if set == nil {
		return "segments not built"
	}
	checks := resolveZoneChecks(collectZonePreds(o.filter, false), &evalCtx{})
	_, pruned := pruneSegments(set, checks)
	return fmt.Sprintf("segments pruned %d/%d", pruned, len(set.Segments))
}

// describeBounds renders an index scan's effective key interval — the
// planner's intersection of every sargable conjunct — as the predicate it
// amounts to, so "why did this scan touch N pages" reads off the plan.
func describeBounds(sb *scanBounds) string {
	if sb.empty {
		return " (empty range)"
	}
	text := func(b scanBound) string {
		if l, ok := b.e.(*litExpr); ok {
			return (&sql.Literal{Val: l.v}).SQL()
		}
		return b.src.SQL()
	}
	var parts []string
	for _, b := range sb.lo {
		op := " > "
		switch {
		case b.eq:
			op = " = "
		case b.incl:
			op = " >= "
		}
		parts = append(parts, sb.col+op+text(b))
	}
	for _, b := range sb.hi {
		if b.eq {
			continue // rendered once, with the low side
		}
		op := " < "
		if b.incl {
			op = " <= "
		}
		parts = append(parts, sb.col+op+text(b))
	}
	return " (" + strings.Join(parts, " and ") + ")"
}
