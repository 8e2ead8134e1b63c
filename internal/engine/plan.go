package engine

import (
	"fmt"
	"math"
	"strings"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// The planner turns a bound SELECT into an operator tree. It is
// rule-based with selectivity estimates from column min/max statistics,
// mirroring the decisions the paper depends on:
//
//   - single-table predicates are pushed into scans;
//   - a scan uses an index range when a sargable predicate constrains an
//     indexed column and either the estimated selectivity is low or
//     sequential scans are disabled (SET enable_seqscan = off — the knob
//     Apuama toggles so virtual partitions are honoured);
//   - equi-joins become hash joins, ordered greedily by estimated
//     cardinality, building on the smaller side;
//   - correlated sub-queries run as parameterized sub-plans whose
//     parameter-equality predicates use index lookups.

// planTop plans a top-level SELECT under the given inputs.
func (n *Node) planTop(stmt *sql.SelectStmt, in *planInputs) (op, []string, error) {
	var params []bexpr
	root, cols, err := n.planSelectScoped(stmt, nil, &params, in)
	if err != nil {
		return nil, nil, err
	}
	if len(params) > 0 {
		return nil, nil, fmt.Errorf("query references unknown outer columns")
	}
	return root, cols, nil
}

// planSelectScoped plans a SELECT that may reference the outer scope
// (correlated sub-query); correlation parameter bindings are appended to
// params.
func (n *Node) planSelectScoped(stmt *sql.SelectStmt, outer *scope, params *[]bexpr, in *planInputs) (op, []string, error) {
	var fp fromPlan
	if err := n.planFrom(&fp, stmt, outer, params, in); err != nil {
		return nil, nil, err
	}
	return n.planOver(stmt, &fp, fp.neededCols(stmt))
}

// fromPlan is a SELECT's FROM/WHERE analysis: the name scope, one planned
// scan per table with that table's own filters pushed into it, and the
// conjuncts left for the join tree. It holds the binder and scope by
// value and lives in its caller's frame, so planning a statement does not
// put them on the heap.
type fromPlan struct {
	b         binder
	scope     scope
	scans     []*plannedScan
	joinPreds []joinPred
	residuals []residual
}

// planFrom resolves the FROM list, classifies the WHERE conjuncts and
// picks an access path per table.
func (n *Node) planFrom(fp *fromPlan, stmt *sql.SelectStmt, outer *scope, params *[]bexpr, in *planInputs) error {
	if len(stmt.From) == 0 {
		return fmt.Errorf("FROM clause is required")
	}
	if in == nil {
		in = &planInputs{}
	}
	fp.b = binder{node: n, in: in}

	// Resolve FROM entries.
	tables := make([]tableBinding, len(stmt.From))
	for i, tr := range stmt.From {
		rel, err := n.db.Relation(tr.Name)
		if err != nil {
			return err
		}
		in.read(rel)
		ref := tr.RefName()
		for j := 0; j < i; j++ {
			if tables[j].ref == ref {
				return fmt.Errorf("duplicate table name %q in FROM", ref)
			}
		}
		tables[i] = tableBinding{ref: ref, rel: rel}
	}
	fp.scope = scope{tables: tables, outer: outer, params: params}

	// Classify WHERE conjuncts.
	tableFilters := make([][]sql.Expr, len(tables))
	for _, c := range splitConjuncts(stmt.Where) {
		if containsSubquery(c) {
			fp.residuals = append(fp.residuals, residual{expr: c, tables: allTables(len(tables))})
			continue
		}
		refs, err := localTables(c, &fp.scope)
		if err != nil {
			return err
		}
		switch len(refs) {
		case 0:
			// Constant (or purely-correlated) condition: apply at top.
			fp.residuals = append(fp.residuals, residual{expr: c})
		case 1:
			tableFilters[refs[0]] = append(tableFilters[refs[0]], c)
		case 2:
			if l, r, ok := equiJoinSides(c, &fp.scope); ok {
				fp.joinPreds = append(fp.joinPreds, joinPred{expr: c, tables: refs, l: l, r: r})
				continue
			}
			fp.residuals = append(fp.residuals, residual{expr: c, tables: refs})
		default:
			fp.residuals = append(fp.residuals, residual{expr: c, tables: refs})
		}
	}

	// Build scans with access paths.
	fp.scans = make([]*plannedScan, len(tables))
	for i := range tables {
		ps, err := n.planScan(&fp.b, i, tables[i], tableFilters[i], &fp.scope)
		if err != nil {
			return err
		}
		fp.scans[i] = ps
	}
	return nil
}

// planOver plans everything above the scans: the join tree, carrying
// only the needed columns (nil = all) from join to join, then aggregation
// or projection.
func (n *Node) planOver(stmt *sql.SelectStmt, fp *fromPlan, needed colSet) (op, []string, error) {
	// Greedy left-deep join order.
	root, layout, err := n.planJoins(&fp.b, fp.scans, fp.joinPreds, fp.residuals, &fp.scope, needed)
	if err != nil {
		return nil, nil, err
	}
	joinScope := fp.scope.withOutputs(layout)
	// An aggregate or a projection goes directly on the join tree.
	placeTuples(root, tupleHome{perBatch: true})

	// Aggregation?
	if hasAggregates(stmt) {
		return n.planAggregate(&fp.b, stmt, root, joinScope)
	}
	return n.planProjection(&fp.b, stmt, root, joinScope)
}

// colSet is a set of columns; nil means every column.
type colSet map[colID]bool

func (cs colSet) has(id colID) bool { return cs == nil || cs[id] }

// neededCols computes, once per SELECT, the columns anything above the
// scans reads — select items, GROUP BY, HAVING, ORDER BY, join predicates
// and residuals — so hash joins copy only those into their output tuples
// instead of every column of every input. Single-table filters are not in
// it: they run inside the scans, on stored rows. The walk goes into
// sub-selects and marks every FROM table that has a column of the
// referenced name, so a correlated reference is at worst over-approximated;
// a column it missed would fail loudly at bind time ("not available at
// this point in the plan"), never silently. SELECT * needs everything, and
// one table has no join to narrow: nil, at no cost to the point lookup
// that is planned once per partition.
func (fp *fromPlan) neededCols(stmt *sql.SelectStmt) colSet {
	if len(fp.scans) == 1 {
		return nil
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil
		}
	}
	needed := colSet{}
	mark := func(x sql.Expr) bool {
		cr, ok := x.(*sql.ColumnRef)
		if !ok {
			return true
		}
		for t, tb := range fp.scope.tables {
			if cr.Table != "" && tb.ref != cr.Table {
				continue
			}
			if c := tb.rel.Schema.ColIndex(cr.Name); c >= 0 {
				needed[colID{t: t, c: c}] = true
			}
		}
		return true
	}
	for _, it := range stmt.Items {
		sql.WalkExpr(it.Expr, mark)
	}
	for _, g := range stmt.GroupBy {
		sql.WalkExpr(g, mark)
	}
	sql.WalkExpr(stmt.Having, mark)
	for _, oi := range stmt.OrderBy {
		sql.WalkExpr(oi.Expr, mark)
	}
	for _, p := range fp.joinPreds {
		sql.WalkExpr(p.expr, mark)
	}
	for _, r := range fp.residuals {
		sql.WalkExpr(r.expr, mark)
	}
	return needed
}

// project returns the positions of the layout's needed columns and
// appends their ids to out.
func (cs colSet) project(layout, out []colID) ([]int, []colID) {
	sel := make([]int, 0, len(layout))
	for pos, id := range layout {
		if cs.has(id) {
			sel = append(sel, pos)
			out = append(out, id)
		}
	}
	return sel, out
}

// --- conjunct analysis ---

func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*sql.AndExpr); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []sql.Expr{e}
}

func containsSubquery(e sql.Expr) bool {
	found := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch x.(type) {
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			found = true
			return false
		case *sql.InExpr:
			if x.(*sql.InExpr).Sub != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// localTables returns the FROM indexes referenced by the expression's
// column refs that resolve in this scope (outer references are ignored:
// they become parameters, i.e. constants).
func localTables(e sql.Expr, sc *scope) ([]int, error) {
	seen := map[int]bool{}
	var resolveErr error
	sql.WalkExpr(e, func(x sql.Expr) bool {
		cr, ok := x.(*sql.ColumnRef)
		if !ok {
			return true
		}
		for t, tb := range sc.tables {
			if cr.Table != "" && tb.ref != cr.Table {
				continue
			}
			if tb.rel.Schema.ColIndex(cr.Name) >= 0 {
				seen[t] = true
				return true
			}
		}
		return true
	})
	if resolveErr != nil {
		return nil, resolveErr
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	// Deterministic order.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out, nil
}

func allTables(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// joinPred is an equi-join conjunct between two tables.
type joinPred struct {
	expr   sql.Expr
	tables []int
	l, r   *sql.ColumnRef // l belongs to tables[0], r to tables[1]
}

type residual struct {
	expr   sql.Expr
	tables []int
}

// equiJoinSides recognizes col = col conjuncts and orients the sides so
// that l references tables[0] (the lower FROM index).
func equiJoinSides(e sql.Expr, sc *scope) (*sql.ColumnRef, *sql.ColumnRef, bool) {
	cmp, ok := e.(*sql.CompareExpr)
	if !ok || cmp.Op != "=" {
		return nil, nil, false
	}
	l, lok := cmp.L.(*sql.ColumnRef)
	r, rok := cmp.R.(*sql.ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	lt, _ := localTables(cmp.L, sc)
	rt, _ := localTables(cmp.R, sc)
	if len(lt) != 1 || len(rt) != 1 || lt[0] == rt[0] {
		return nil, nil, false
	}
	if lt[0] > rt[0] {
		return r, l, true
	}
	return l, r, true
}

// --- scan planning ---

// plannedScan carries a table scan candidate through join ordering.
type plannedScan struct {
	t      int
	rel    *storage.Relation
	op     op
	layout []colID
	est    float64
}

// planScan picks an access path for one table and binds its filters.
func (n *Node) planScan(b *binder, t int, tb tableBinding, filters []sql.Expr, nameScope *scope) (*plannedScan, error) {
	layout := make([]colID, len(tb.rel.Schema.Cols))
	for c := range layout {
		layout[c] = colID{t: t, c: c}
	}
	scanScope := nameScope.withOutputs(layout)

	rows := float64(tb.rel.LiveRows())
	if rows < 1 {
		rows = 1
	}
	sel := filterSelectivity(tb.rel, filters)
	best, candidates, slotted := chooseAccessPath(tb.rel, filters, nameScope, b.in.args)
	seqscan := b.seqscan()
	useIndex := best != nil && (!seqscan || best.selectivity <= 0.2)
	if slotted > 1 || slotted == 1 && !(useIndex && best.slotted) {
		b.in.spilled = true // an argument's value weighed an access path that is not its bound slot
	}
	// A columnar scan replaces a sequential scan, or a clustered index
	// range scan, whose relation is large enough.
	columnar := n.db.ColumnarEnabled() && tb.rel.LiveRows() >= columnarMinRows && (!useIndex || best.index.Clustered)
	// The heap index scan does not re-prove its own range on every row:
	// conjuncts the bounds already guarantee are left out of its filter,
	// and, unless a columnar scan needs them, never bound.
	var implied func(i int) bool
	if useIndex {
		implied = func(i int) bool { return best.implies(filters[i], nameScope) }
	}
	var few [8]bexpr // a point or range statement's conjuncts stay on the stack
	bound := few[:0]
	// A columnar scan's zone maps read its filter's literals at open: an
	// argument there spills.
	b.filter = !columnar
	for i, f := range filters {
		if implied != nil && !columnar && implied(i) {
			bound = append(bound, nil)
			continue
		}
		bf, err := b.bind(f, scanScope)
		if err != nil {
			b.filter = false
			return nil, err
		}
		bound = append(bound, bf)
	}
	b.filter = false
	filter := conjunction(bound, nil)

	var scanOp op
	switch {
	case useIndex:
		// Where the range's width chose this path over a sequential scan or
		// another index, it is part of the plan (see planInputs).
		bounds, err := bindBounds(b, best, nameScope, seqscan || candidates > 1)
		if err != nil {
			return nil, err
		}
		if !columnar {
			scanOp = &indexScanOp{rel: tb.rel, index: best.index, bounds: bounds, filter: filter}
			break
		}
		// Columnar replacement of a clustered index range scan: it keeps
		// every conjunct in its filter (the bounds above are redundant
		// with it, and its zone maps read it), so a columnar scan produces
		// the same row set, and zone maps on the clustered key prune the
		// segments the index range would never have touched. Row ORDER additionally
		// requires physical order to be key order, which only the built
		// segment generation knows — so the index scan rides along as the
		// runtime fallback. Secondary-index scans keep the heap path:
		// their output order is unrelated to physical order.
		fallback := &indexScanOp{rel: tb.rel, index: best.index, bounds: bounds, filter: conjunction(bound, implied)}
		col := &colScanOp{rel: tb.rel, filter: filter, needKeyOrder: true, fallback: fallback}
		scanOp = col
		// MQO: route segment reads through the node's shared-scan
		// coordinator so concurrent queries over the same snapshot
		// share one physical pass. The colScanOp rides along as the
		// fallback for unshareable generations.
		if n.db.MQOEnabled() {
			scanOp = &sharedScanOp{rel: tb.rel, filter: filter, needKeyOrder: true, fallback: col}
		}
	case columnar:
		col := &colScanOp{rel: tb.rel, filter: filter}
		scanOp = col
		if n.db.MQOEnabled() {
			scanOp = &sharedScanOp{rel: tb.rel, filter: filter, fallback: col}
		}
	default:
		scanOp = &seqScanOp{rel: tb.rel, filter: filter}
	}
	return &plannedScan{t: t, rel: tb.rel, op: scanOp, layout: layout, est: math.Max(rows*sel, 1)}, nil
}

// conjunction ANDs the bound conjuncts together in written order, leaving
// out nil ones and those skip names (nil skips none); nil when nothing is
// left.
func conjunction(conjuncts []bexpr, skip func(i int) bool) bexpr {
	var e bexpr
	for i, c := range conjuncts {
		switch {
		case c == nil || skip != nil && skip(i):
		case e == nil:
			e = c
		default:
			e = &andExpr{l: e, r: c}
		}
	}
	return e
}

// keyBound is one sargable bound on an index's leading column: the
// constant side of `col op const`. A literal bound carries its folded
// value so it intersects with the others at plan time; the rest are
// runtime constants (correlation parameters), resolved when the scan
// opens.
type keyBound struct {
	expr sql.Expr
	val  sqltypes.Value // folded literal, valid when lit
	lit  bool
	incl bool
	eq   bool // from an equality conjunct (EXPLAIN renders `col = x` once)
	slot int  // the placeholder the literal is ($slot), 0 for none
}

// accessPath is a candidate index range: the intersection of every
// sargable conjunct on the index's leading column.
type accessPath struct {
	index *storage.Index
	col   string           // the index's leading column
	args  []sqltypes.Value // the plan's placeholder arguments, which fold as literals
	// lo, hi are the bound candidates per side (nil = open): at most one
	// literal — the tightest — plus every runtime constant.
	lo, hi      []keyBound
	eq          bool // some conjunct pins the column to one value
	empty       bool // the literal bounds prove no key qualifies
	slotted     bool // a placeholder is among the literal bounds
	mixed       bool // a placeholder's literal met another literal on its side
	selectivity float64
}

// chooseAccessPath finds the most selective index range constrained by
// the filters, and counts the indexes that offered one and those of them
// a placeholder bounds. Only the first index column is range-matched
// (enough for virtual partitioning and TPC-H predicates).
func chooseAccessPath(rel *storage.Relation, filters []sql.Expr, sc *scope, args []sqltypes.Value) (best *accessPath, candidates, slotted int) {
	for _, ix := range rel.Indexes() {
		ap := buildPath(rel, ix, filters, sc, args)
		if ap == nil {
			continue
		}
		candidates++
		if ap.slotted {
			slotted++
		}
		if best == nil || ap.selectivity < best.selectivity ||
			(ap.selectivity == best.selectivity && ap.index.Clustered && !best.index.Clustered) {
			best = ap
		}
	}
	return best, candidates, slotted
}

// buildPath intersects the filters' bounds on the index's leading column.
// The bounds only ever narrow which entries are visited, never which rows
// qualify: a conjunct leaves the scan filter only where accessPath.implies
// shows the bounds guarantee it.
func buildPath(rel *storage.Relation, ix *storage.Index, filters []sql.Expr, sc *scope, args []sqltypes.Value) *accessPath {
	col := ix.Cols[0]
	name := rel.Schema.Cols[col].Name
	ap := &accessPath{index: ix, col: name, args: args, selectivity: 1}
	for _, f := range filters {
		switch e := f.(type) {
		case *sql.CompareExpr:
			colSide, constSide, op := sargSides(e, name, sc)
			if colSide == nil {
				continue
			}
			switch op {
			case "=":
				ap.eq = true
				ap.narrow(true, keyBound{expr: constSide, incl: true, eq: true})
				ap.narrow(false, keyBound{expr: constSide, incl: true, eq: true})
			case ">":
				ap.narrow(true, keyBound{expr: constSide})
			case ">=":
				ap.narrow(true, keyBound{expr: constSide, incl: true})
			case "<":
				ap.narrow(false, keyBound{expr: constSide})
			case "<=":
				ap.narrow(false, keyBound{expr: constSide, incl: true})
			}
		case *sql.BetweenExpr:
			if e.Not {
				continue
			}
			if cr, ok := e.E.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.Lo, sc) && isConstInScope(e.Hi, sc) {
				ap.narrow(true, keyBound{expr: e.Lo, incl: true})
				ap.narrow(false, keyBound{expr: e.Hi, incl: true})
			}
		}
	}
	if ap.lo == nil && ap.hi == nil && !ap.empty {
		return nil
	}
	if lo, hi := literalBound(ap.lo), literalBound(ap.hi); lo != nil && hi != nil {
		ap.empty = ap.empty || emptyInterval(lo.val, lo.incl, hi.val, hi.incl)
	}
	ap.selectivity = rangeSelectivity(rel, col, ap)
	return ap
}

// narrow folds one bound into its side. Literals (folded with
// literalValue, so date arithmetic and placeholder arguments count)
// intersect at plan time — only the tightest survives; runtime constants
// are kept as extra candidates. A NULL literal can satisfy no comparison,
// so it empties the range.
func (ap *accessPath) narrow(low bool, b keyBound) {
	side := &ap.hi
	if low {
		side = &ap.lo
	}
	if b.val, b.lit = literalValue(b.expr, ap.args); b.lit {
		if p, ok := b.expr.(*sql.Placeholder); ok {
			b.slot, ap.slotted = p.N, true
		}
		if b.val.IsNull() {
			ap.empty = true
			return
		}
		if cur := literalBound(*side); cur != nil {
			ap.mixed = ap.mixed || cur.slot > 0 || b.slot > 0
			if tighter(low, cur.val, cur.incl, b.val, b.incl) {
				*cur = b
			}
			return
		}
	}
	*side = append(*side, b)
}

// implies reports whether every row the index range reaches satisfies the
// conjunct f, so a heap index scan need not evaluate it: f is one of the
// comparisons buildPath folded into the bounds, its constant a literal,
// and on each side it constrains the range's only candidate is a literal
// of f's comparison family that orders transitively (see orderedLiteral)
// — then that bound, being at least as tight, guarantees f by the very
// sqltypes.Compare the B-tree walks with. A side with a runtime candidate
// proves nothing (at scan open a parameter of another family makes
// resolveSide leave the literal alone), and neither does an upper bound
// alone: an interval open below starts at the NULL keys, on which f is
// not TRUE. Parameters, string-against-numeric and NULL bounds therefore
// stay in the filter.
func (ap *accessPath) implies(f sql.Expr, sc *scope) bool {
	side := func(low bool, v sqltypes.Value) bool {
		cands := ap.hi
		if low {
			cands = ap.lo
		} else if len(ap.lo) == 0 {
			return false
		}
		return len(cands) == 1 && cands[0].lit && orderedLiteral(v) &&
			orderedLiteral(cands[0].val) && sameFamily(cands[0].val, v)
	}
	switch e := f.(type) {
	case *sql.CompareExpr:
		colSide, constSide, op := sargSides(e, ap.col, sc)
		if colSide == nil {
			return false
		}
		v, lit := literalValue(constSide, ap.args)
		if !lit {
			return false
		}
		switch op {
		case "=":
			return side(true, v) && side(false, v)
		case ">", ">=":
			return side(true, v)
		case "<", "<=":
			return side(false, v)
		}
	case *sql.BetweenExpr:
		cr, ok := e.E.(*sql.ColumnRef)
		if e.Not || !ok || cr.Name != ap.col {
			return false
		}
		lo, loLit := literalValue(e.Lo, ap.args)
		hi, hiLit := literalValue(e.Hi, ap.args)
		return loLit && hiLit && side(true, lo) && side(false, hi)
	}
	return false
}

// orderedLiteral reports whether v orders transitively against every key
// and every other such literal under sqltypes.Compare, which compares an
// int with a float in float space: true of strings, of floats other than
// NaN and of ints a float64 holds exactly.
func orderedLiteral(v sqltypes.Value) bool {
	switch v.K {
	case sqltypes.KindString:
		return true
	case sqltypes.KindFloat:
		return v.F == v.F
	case sqltypes.KindInt, sqltypes.KindDate, sqltypes.KindBool:
		return -1<<53 < v.I && v.I < 1<<53
	}
	return false
}

// literalBound returns the side's literal candidate, if it has one.
func literalBound(side []keyBound) *keyBound {
	for i := range side {
		if side[i].lit {
			return &side[i]
		}
	}
	return nil
}

// tighter reports whether the candidate bound (v, incl) narrows a side
// currently bounded by (cur, curIncl): a higher low or a lower high wins,
// and on the same value an exclusive bound beats an inclusive one. Values
// from different comparison families (string against numeric) leave the
// bound alone. The same rule runs at plan time over literals and at scan
// open over evaluated runtime constants.
func tighter(low bool, cur sqltypes.Value, curIncl bool, v sqltypes.Value, incl bool) bool {
	if !sameFamily(cur, v) {
		return false
	}
	c := sqltypes.Compare(v, cur)
	if !low {
		c = -c
	}
	return c > 0 || (c == 0 && curIncl && !incl)
}

// emptyInterval reports whether no key lies between the two bounds.
func emptyInterval(lo sqltypes.Value, loIncl bool, hi sqltypes.Value, hiIncl bool) bool {
	if !sameFamily(lo, hi) {
		return false
	}
	c := sqltypes.Compare(lo, hi)
	return c > 0 || (c == 0 && !(loIncl && hiIncl))
}

// sameFamily reports whether two bound values order against each other
// the way a predicate means them to: strings with strings, everything
// numeric (ints, floats, dates) with everything numeric.
func sameFamily(a, b sqltypes.Value) bool {
	return (a.K == sqltypes.KindString) == (b.K == sqltypes.KindString)
}

// sargSides matches `col op const` or `const op col` (flipping the
// operator) for the given column name.
func sargSides(e *sql.CompareExpr, name string, sc *scope) (col *sql.ColumnRef, constSide sql.Expr, op string) {
	if cr, ok := e.L.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.R, sc) {
		return cr, e.R, e.Op
	}
	if cr, ok := e.R.(*sql.ColumnRef); ok && cr.Name == name && isConstInScope(e.L, sc) {
		return cr, e.L, flipCompare(e.Op)
	}
	return nil, nil, ""
}

// flipCompare mirrors a comparison operator across its operands.
func flipCompare(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// isConstInScope reports whether the expression contains no column
// reference that resolves in the local scope (outer references are
// runtime constants) and no sub-query.
func isConstInScope(e sql.Expr, sc *scope) bool {
	if containsSubquery(e) {
		return false
	}
	refs, err := localTables(e, sc)
	return err == nil && len(refs) == 0
}

// rangeSelectivity estimates the fraction of rows in the access path's
// range using column min/max statistics. Non-literal bounds (correlated
// parameters) are assumed selective.
func rangeSelectivity(rel *storage.Relation, col int, ap *accessPath) float64 {
	if ap.empty {
		return 0
	}
	if ap.eq {
		if ap.index.Unique && len(ap.index.Cols) == 1 {
			rows := float64(rel.LiveRows())
			if rows < 1 {
				rows = 1
			}
			return 1 / rows
		}
		return 0.005
	}
	min, max := rel.ColRange(col)
	if min.IsNull() || max.IsNull() {
		return 0.1
	}
	span := max.AsFloat() - min.AsFloat()
	if span <= 0 {
		return 0.1
	}
	lo := min.AsFloat()
	hi := max.AsFloat()
	for _, b := range ap.lo {
		if !b.lit {
			return 0.01 // parameterized bound: assume selective
		}
		lo = b.val.AsFloat()
	}
	for _, b := range ap.hi {
		if !b.lit {
			return 0.01
		}
		hi = b.val.AsFloat()
	}
	frac := (hi - lo) / span
	return math.Min(math.Max(frac, 0.0005), 1)
}

// literalValue folds a literal-only expression (date arithmetic included)
// to a value at plan time: whatever the binder folds to a literal in a
// scope with no columns. A bare literal, the common bound, skips the bind;
// so does a bare placeholder, whose value is its argument in args.
func literalValue(e sql.Expr, args []sqltypes.Value) (sqltypes.Value, bool) {
	switch e := e.(type) {
	case *sql.Literal:
		return e.Val, true
	case *sql.Placeholder:
		if e.N >= 1 && e.N <= len(args) {
			return args[e.N-1], true
		}
	case *sql.BinaryExpr, *sql.NegExpr:
		if be, err := (&binder{}).bind(e, &scope{}); err == nil {
			if lit, ok := be.(*litExpr); ok {
				return lit.v, true
			}
		}
	}
	return sqltypes.Null(), false
}

// FoldLiteral returns the value the planner binds a literal-only
// expression to — a literal, or arithmetic over literals folded by the
// evaluator (foldConst) — and false when it does not fold.
// sql.Parameterize lifts operands through it, so an argument is bit for
// bit the literal a plan of the statement as written would bind.
func FoldLiteral(e sql.Expr) (sqltypes.Value, bool) { return literalValue(e, nil) }

// bindBounds binds the access path's bound candidates (constants or
// correlation parameters) for runtime evaluation. A placeholder's literal
// becomes a bound slot of the plan (planInputs.bindSlots) when it is its
// side's only candidate; widthDecides says the range's width chose the
// path.
func bindBounds(b *binder, ap *accessPath, nameScope *scope, widthDecides bool) (*scanBounds, error) {
	constScope := nameScope.withOutputs(nil)
	constScope.tables = nil
	sb := &scanBounds{col: ap.col, empty: ap.empty}
	if ap.slotted && (ap.empty || ap.mixed) {
		b.in.spilled = true // an argument decided the range beyond its own slot
	}
	if sb.empty {
		return sb, nil
	}
	bindSide := func(side []keyBound) ([]scanBound, error) {
		var out []scanBound
		for _, kb := range side {
			if kb.lit {
				out = append(out, scanBound{e: &litExpr{v: kb.val}, incl: kb.incl, eq: kb.eq})
				continue
			}
			e, err := b.bind(kb.expr, constScope)
			if err != nil {
				return nil, err
			}
			out = append(out, scanBound{e: e, src: kb.expr, incl: kb.incl, eq: kb.eq})
		}
		return out, nil
	}
	var err error
	if sb.lo, err = bindSide(ap.lo); err != nil {
		return nil, err
	}
	if sb.hi, err = bindSide(ap.hi); err != nil {
		return nil, err
	}
	if ap.slotted {
		b.in.bindSlots(ap, sb, widthDecides)
	}
	return sb, nil
}

// filterSelectivity multiplies per-conjunct guesses for cardinality
// estimation (not access-path choice).
func filterSelectivity(rel *storage.Relation, filters []sql.Expr) float64 {
	sel := 1.0
	for _, f := range filters {
		switch e := f.(type) {
		case *sql.CompareExpr:
			if e.Op == "=" {
				sel *= 0.01
			} else {
				sel *= 0.33
			}
		case *sql.BetweenExpr:
			sel *= 0.1
		case *sql.InExpr:
			sel *= 0.05
		case *sql.LikeExpr:
			sel *= 0.1
		default:
			sel *= 0.5
		}
	}
	return math.Max(sel, 0.0001)
}

// --- join planning ---

// planJoins builds a left-deep join tree over the scans, applying
// residual filters as soon as their tables are available. A hash join's
// output layout is its inputs' narrowed to the needed columns (nil = all).
func (n *Node) planJoins(b *binder, scans []*plannedScan, preds []joinPred, residuals []residual, nameScope *scope, needed colSet) (op, []colID, error) {
	remaining := map[int]*plannedScan{}
	for _, s := range scans {
		remaining[s.t] = s
	}
	usedPred := make([]bool, len(preds))
	appliedRes := make([]bool, len(residuals))

	// Start with the smallest scan.
	var cur *plannedScan
	for _, s := range remaining {
		if cur == nil || s.est < cur.est || (s.est == cur.est && s.t < cur.t) {
			cur = s
		}
	}
	delete(remaining, cur.t)
	root, layout, est := cur.op, cur.layout, cur.est
	joined := map[int]bool{cur.t: true}

	applyResiduals := func() error {
		for i, r := range residuals {
			if appliedRes[i] {
				continue
			}
			ok := true
			for _, t := range r.tables {
				if !joined[t] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			b.filter = true
			cond, err := b.bind(r.expr, nameScope.withOutputs(layout))
			b.filter = false
			if err != nil {
				return err
			}
			root = &filterOp{child: root, cond: cond}
			appliedRes[i] = true
		}
		return nil
	}
	if err := applyResiduals(); err != nil {
		return nil, nil, err
	}

	for len(remaining) > 0 {
		// Prefer a table connected by an equi-join predicate.
		var next *plannedScan
		for _, s := range remaining {
			connected := false
			for pi, p := range preds {
				if usedPred[pi] {
					continue
				}
				if (p.tables[0] == s.t && joined[p.tables[1]]) || (p.tables[1] == s.t && joined[p.tables[0]]) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if next == nil || s.est < next.est || (s.est == next.est && s.t < next.t) {
				next = s
			}
		}
		if next == nil {
			// Disconnected: cartesian product with the smallest.
			for _, s := range remaining {
				if next == nil || s.est < next.est || (s.est == next.est && s.t < next.t) {
					next = s
				}
			}
			delete(remaining, next.t)
			placeTuples(root, tupleHome{perBatch: true})
			root = &nestedLoopOp{outer: root, inner: next.op}
			layout = append(append([]colID(nil), layout...), next.layout...)
			joined[next.t] = true
			est *= next.est
			if err := applyResiduals(); err != nil {
				return nil, nil, err
			}
			continue
		}
		delete(remaining, next.t)

		// Gather all usable equi-preds between next and the joined set.
		var probeKeyExprs, buildKeyExprs []*sql.ColumnRef
		for pi, p := range preds {
			if usedPred[pi] {
				continue
			}
			var joinedSide, nextSide *sql.ColumnRef
			switch {
			case p.tables[0] == next.t && joined[p.tables[1]]:
				nextSide, joinedSide = p.l, p.r
			case p.tables[1] == next.t && joined[p.tables[0]]:
				nextSide, joinedSide = p.r, p.l
			default:
				continue
			}
			usedPred[pi] = true
			probeKeyExprs = append(probeKeyExprs, joinedSide)
			buildKeyExprs = append(buildKeyExprs, nextSide)
		}

		curScope := nameScope.withOutputs(layout)
		nextScope := nameScope.withOutputs(next.layout)
		buildLeft := est <= next.est // materialize the smaller side

		var probeOp, buildOp op
		var probeLayout, buildLayout []colID
		var probeScope, buildScope *scope
		var probeCols, buildCols []*sql.ColumnRef
		if buildLeft {
			probeOp, probeLayout, probeScope, probeCols = next.op, next.layout, nextScope, buildKeyExprs
			buildOp, buildLayout, buildScope, buildCols = root, layout, curScope, probeKeyExprs
		} else {
			probeOp, probeLayout, probeScope, probeCols = root, layout, curScope, probeKeyExprs
			buildOp, buildLayout, buildScope, buildCols = next.op, next.layout, nextScope, buildKeyExprs
		}
		probeKeys, err := bindRefs(b, probeCols, probeScope)
		if err != nil {
			return nil, nil, err
		}
		buildKeys, err := bindRefs(b, buildCols, buildScope)
		if err != nil {
			return nil, nil, err
		}
		// The join's own key columns are in needed (join predicates count),
		// so the narrowed tuple is never empty.
		probeSel, narrowed := needed.project(probeLayout, nil)
		buildSel, narrowed := needed.project(buildLayout, narrowed)
		j := &hashJoinOp{probe: probeOp, build: buildOp, probeKeys: probeKeys, buildKeys: buildKeys,
			probeSel: probeSel, buildSel: buildSel, inCols: len(probeLayout) + len(buildLayout)}
		placeTuples(j.probe, tupleHome{perBatch: true})
		placeTuples(j.build, tupleHome{keeper: &j.kept})
		root = j
		layout = narrowed
		joined[next.t] = true
		est = math.Max(est, next.est) // FK-join cardinality heuristic
		if err := applyResiduals(); err != nil {
			return nil, nil, err
		}
	}
	for i := range appliedRes {
		if !appliedRes[i] {
			return nil, nil, fmt.Errorf("internal: residual predicate not applied")
		}
	}
	return root, layout, nil
}

// placeTuples tells o where to cut the tuples it builds, from what its
// consumer does with them. home is perBatch for a consumer done with each
// batch before it pulls the next: an aggregate folds it, a projection
// copies values out of it, an upper join's probe side and a nested loop's
// outer side finish the current row before they refill, a copying filter
// copies what it keeps. It is the consumer's arena for a keeper, a join's
// build side. It is the zero slab home for a plan or sub-plan root, whose
// rows escape, and for any consumer never placed here. A hash join cuts its
// output tuples there; a filter over a join copies its survivors there and
// takes the join's tuples per batch, so it holds what it keeps, not every
// tuple it was offered. An aggregate renders its rows there — per batch
// means its own arena, whose rows outlive every batch until the aggregate's
// next open or close — and a HAVING filter passes them on to its own
// consumer without copying. Anything else builds no tuple and is left
// alone. It reports whether o builds tuples a consumer must copy to keep
// past a batch.
func placeTuples(o op, home tupleHome) bool {
	if joinTupleTest.stable.Load() {
		return false
	}
	switch v := o.(type) {
	case *hashJoinOp:
		v.out = home
		return true
	case *aggOp:
		v.out = home
		return false
	case *filterOp:
		if _, having := v.child.(*aggOp); having {
			return placeTuples(v.child, home)
		}
		v.copies, v.out = placeTuples(v.child, tupleHome{perBatch: true}), home
		return v.copies
	}
	return false
}

// rootHome returns where the operator that builds the rows a plan returns
// — its projection, under any ORDER BY and LIMIT,
// which pass those rows on — cuts them, so Prepared.OpenAt can point it at
// the caller's arena. A DISTINCT has none: it drops most of the rows it is
// offered, and they would stay in the arena until its release.
func rootHome(o op) **RowArena {
	if joinTupleTest.stable.Load() {
		return nil
	}
	for {
		switch v := o.(type) {
		case *limitOp:
			o = v.child
		case *sortOp:
			o = v.child
		case *projectOp:
			return &v.out
		default:
			return nil
		}
	}
}

func bindRefs(b *binder, refs []*sql.ColumnRef, sc *scope) ([]bexpr, error) {
	out := make([]bexpr, len(refs))
	for i, r := range refs {
		e, err := b.bind(r, sc)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// --- projection / aggregation ---

func hasAggregates(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	found := false
	check := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			if f, ok := x.(*sql.FuncExpr); ok && f.IsAggregate() {
				found = true
				return false
			}
			// Do not descend into sub-queries: their aggregates are theirs.
			switch x.(type) {
			case *sql.ExistsExpr, *sql.SubqueryExpr:
				return false
			}
			return true
		})
	}
	for _, it := range stmt.Items {
		if !it.Star {
			check(it.Expr)
		}
	}
	if stmt.Having != nil {
		check(stmt.Having)
	}
	return found
}

// itemName derives the output column name of a select item.
func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.SQL()
}

// planProjection handles the non-aggregate tail: project, distinct,
// order by, limit.
func (n *Node) planProjection(b *binder, stmt *sql.SelectStmt, root op, joinScope *scope) (op, []string, error) {
	var items []bexpr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			for t, tb := range joinScope.tables {
				for c, col := range tb.rel.Schema.Cols {
					pos := -1
					for p, o := range joinScope.outputs {
						if o == (colID{t: t, c: c}) {
							pos = p
							break
						}
					}
					if pos < 0 {
						return nil, nil, fmt.Errorf("internal: star column not in layout")
					}
					items = append(items, &colExpr{pos: pos})
					names = append(names, col.Name)
				}
			}
			continue
		}
		e, err := b.bind(it.Expr, joinScope)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, itemName(it))
	}
	// ORDER BY keys that are not in the select list are carried as hidden
	// trailing columns through the sort and trimmed afterwards (not legal
	// with DISTINCT, where output rows must be exactly the sort domain).
	hidden := 0
	for _, oi := range stmt.OrderBy {
		if orderKeyPosition(oi, stmt, names) >= 0 {
			continue
		}
		if stmt.Distinct {
			return nil, nil, fmt.Errorf("ORDER BY expression %q must appear in the select list with DISTINCT", oi.Expr.SQL())
		}
		e, err := b.bind(oi.Expr, joinScope)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, oi.Expr.SQL())
		hidden++
	}
	root = &projectOp{child: root, items: items}
	if stmt.Distinct {
		root = &distinctOp{child: root}
	}
	root, err := attachOrderLimit(stmt, root, names)
	if err != nil {
		return nil, nil, err
	}
	return trimHidden(root, names, hidden), names[:len(names)-hidden], nil
}

// trimHidden drops trailing hidden sort columns after ordering.
func trimHidden(root op, names []string, hidden int) op {
	if hidden == 0 {
		return root
	}
	visible := len(names) - hidden
	items := make([]bexpr, visible)
	for i := range items {
		items[i] = &colExpr{pos: i}
	}
	return &projectOp{child: root, items: items}
}

// orderKeyPosition resolves an ORDER BY key against the select list by
// alias or expression text; -1 if absent.
func orderKeyPosition(oi sql.OrderItem, stmt *sql.SelectStmt, names []string) int {
	if cr, ok := oi.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
		for i, n := range names {
			if n == cr.Name {
				return i
			}
		}
	}
	want := oi.Expr.SQL()
	for i, it := range stmt.Items {
		if !it.Star && it.Expr.SQL() == want {
			return i
		}
	}
	// Hidden columns appended earlier in this planning pass match by
	// their rendered name.
	for i := len(stmt.Items); i < len(names); i++ {
		if names[i] == want {
			return i
		}
	}
	return -1
}

// planAggregate handles GROUP BY / aggregate queries: aggregation over
// the join output, then HAVING, projection in "aggregate space", order
// by, limit.
func (n *Node) planAggregate(b *binder, stmt *sql.SelectStmt, root op, joinScope *scope) (op, []string, error) {
	// Bind group keys.
	groupMap := map[string]int{}
	var groupBinds []bexpr
	for i, g := range stmt.GroupBy {
		e, err := b.bind(g, joinScope)
		if err != nil {
			return nil, nil, err
		}
		groupBinds = append(groupBinds, e)
		groupMap[g.SQL()] = i
	}

	// Collect distinct aggregate calls from items and having.
	aggMap := map[string]int{}
	var aggDefs []*aggDef
	collect := func(e sql.Expr) error {
		var werr error
		sql.WalkExpr(e, func(x sql.Expr) bool {
			f, ok := x.(*sql.FuncExpr)
			if !ok || !f.IsAggregate() {
				switch x.(type) {
				case *sql.ExistsExpr, *sql.SubqueryExpr:
					return false
				}
				return true
			}
			key := f.SQL()
			if _, dup := aggMap[key]; dup {
				return false
			}
			def := &aggDef{fn: aggFnOf(strings.ToLower(f.Name)), distinct: f.Distinct}
			if f.Star {
				if def.fn != aggCount {
					werr = fmt.Errorf("%s(*) is not valid", f.Name)
					return false
				}
			} else {
				if len(f.Args) != 1 {
					werr = fmt.Errorf("aggregate %s takes one argument", f.Name)
					return false
				}
				arg, err := b.bind(f.Args[0], joinScope)
				if err != nil {
					werr = err
					return false
				}
				def.arg = arg
			}
			aggMap[key] = len(aggDefs)
			aggDefs = append(aggDefs, def)
			return false
		})
		return werr
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, nil, err
		}
	}
	for _, oi := range stmt.OrderBy {
		// ORDER BY may sort on an aggregate that is not projected.
		if err := collect(oi.Expr); err != nil {
			return nil, nil, err
		}
	}

	root = &aggOp{child: root, groups: groupBinds, aggs: aggDefs}
	nGroups := len(groupBinds)

	if stmt.Having != nil {
		cond, err := bindAggSpace(b, stmt.Having, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		root = &filterOp{child: root, cond: cond}
	}
	// The projection below copies what it reads of the aggregate's rows.
	placeTuples(root, tupleHome{perBatch: true})

	var items []bexpr
	var names []string
	for _, it := range stmt.Items {
		e, err := bindAggSpace(b, it.Expr, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, itemName(it))
	}
	// Hidden ORDER BY keys in aggregate space: the key must itself be a
	// group expression or aggregate (anything else has no value per
	// output row).
	hidden := 0
	for _, oi := range stmt.OrderBy {
		if orderKeyPosition(oi, stmt, names) >= 0 {
			continue
		}
		if stmt.Distinct {
			return nil, nil, fmt.Errorf("ORDER BY expression %q must appear in the select list with DISTINCT", oi.Expr.SQL())
		}
		e, err := bindAggSpace(b, oi.Expr, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, e)
		names = append(names, oi.Expr.SQL())
		hidden++
	}
	root = &projectOp{child: root, items: items}
	if stmt.Distinct {
		root = &distinctOp{child: root}
	}
	root, err := attachOrderLimit(stmt, root, names)
	if err != nil {
		return nil, nil, err
	}
	return trimHidden(root, names, hidden), names[:len(names)-hidden], nil
}

// bindAggSpace binds an expression above the aggregation operator: group
// keys and aggregate calls become slot references; anything else must be
// composed of those plus constants.
func bindAggSpace(b *binder, e sql.Expr, groupMap, aggMap map[string]int, nGroups int) (bexpr, error) {
	if pos, ok := groupMap[e.SQL()]; ok {
		return &aggRefExpr{pos: pos}, nil
	}
	if f, ok := e.(*sql.FuncExpr); ok && f.IsAggregate() {
		pos, ok := aggMap[f.SQL()]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s not collected", f.SQL())
		}
		return &aggRefExpr{pos: nGroups + pos}, nil
	}
	switch e := e.(type) {
	case *sql.Literal:
		return &litExpr{v: e.Val}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("column %q must appear in GROUP BY or inside an aggregate", e.SQL())
	case *sql.BinaryExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return foldConst(&binExpr{op: e.Op, l: l, r: r}, l, r), nil
	case *sql.NegExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return foldConst(&negExpr{e: x}, x), nil
	case *sql.CompareExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return newCmp(e.Op, l, r), nil
	case *sql.AndExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &andExpr{l: l, r: r}, nil
	case *sql.OrExpr:
		l, err := bindAggSpace(b, e.L, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := bindAggSpace(b, e.R, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &orExpr{l: l, r: r}, nil
	case *sql.NotExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &notExpr{e: x}, nil
	case *sql.ExtractExpr:
		x, err := bindAggSpace(b, e.E, groupMap, aggMap, nGroups)
		if err != nil {
			return nil, err
		}
		return &extractExpr{field: e.Field, e: x}, nil
	case *sql.CaseExpr:
		c := &caseExpr{}
		for _, w := range e.Whens {
			cond, err := bindAggSpace(b, w.Cond, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			then, err := bindAggSpace(b, w.Then, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			c.whens = append(c.whens, boundWhen{cond: cond, then: then})
		}
		if e.Else != nil {
			els, err := bindAggSpace(b, e.Else, groupMap, aggMap, nGroups)
			if err != nil {
				return nil, err
			}
			c.els = els
		}
		return c, nil
	default:
		return nil, fmt.Errorf("%T is not supported above aggregation", e)
	}
}

// attachOrderLimit resolves ORDER BY keys against the (possibly
// hidden-extended) output columns and appends sort and limit.
func attachOrderLimit(stmt *sql.SelectStmt, root op, names []string) (op, error) {
	if len(stmt.OrderBy) > 0 {
		var keys []sortKey
		for _, oi := range stmt.OrderBy {
			pos := orderKeyPosition(oi, stmt, names)
			if pos < 0 {
				return nil, fmt.Errorf("ORDER BY expression %q must appear in the select list", oi.Expr.SQL())
			}
			keys = append(keys, sortKey{expr: &colExpr{pos: pos}, desc: oi.Desc})
		}
		root = &sortOp{child: root, keys: keys}
	}
	if stmt.Limit != nil {
		root = &limitOp{child: root, n: *stmt.Limit}
	}
	return root, nil
}
