package engine

import (
	"fmt"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// colID identifies a column by FROM-list position and column position;
// every operator's output layout is a []colID, and expressions are bound
// against the layout of the operator they run above.
type colID struct{ t, c int }

// tableBinding records one FROM entry.
type tableBinding struct {
	ref string // alias or table name, the name used in the query
	rel *storage.Relation
}

// scope is the name-resolution context for one (sub)query.
type scope struct {
	tables  []tableBinding
	outputs []colID  // layout of the operator being bound against
	outer   *scope   // enclosing query, for correlated references
	params  *[]bexpr // correlation parameters of the subquery being built
}

// withOutputs derives a scope with the same name space but a different
// tuple layout (used as join trees reorder and concatenate outputs).
func (sc *scope) withOutputs(outputs []colID) *scope {
	c := *sc
	c.outputs = outputs
	return &c
}

// resolve maps a column reference to a position in the current layout and
// returns the column's declared kind. The boolean reports local success;
// callers fall back to the outer scope.
func (sc *scope) resolve(table, name string) (int, sqltypes.Kind, error, bool) {
	var id colID
	found := false
	for t, tb := range sc.tables {
		if table != "" && tb.ref != table {
			continue
		}
		c := tb.rel.Schema.ColIndex(name)
		if c < 0 {
			continue
		}
		if found {
			return 0, 0, fmt.Errorf("ambiguous column %q", name), true
		}
		id = colID{t: t, c: c}
		found = true
		if table != "" {
			break
		}
	}
	if !found {
		return 0, 0, nil, false
	}
	kind := sc.tables[id.t].rel.Schema.Cols[id.c].Kind
	for pos, o := range sc.outputs {
		if o == id {
			return pos, kind, nil, true
		}
	}
	return 0, 0, fmt.Errorf("column %s.%s is not available at this point in the plan", table, name), true
}

// binder binds sql.Expr trees into bexpr trees. It needs the node for
// planning nested sub-queries and the plan's inputs for placeholders; one
// without either binds everything else (literalValue folds constants
// through one). filter is set while it binds a scan's or a join's filter,
// where a placeholder's literal is read only when a row is evaluated.
type binder struct {
	node   *Node
	in     *planInputs
	filter bool
}

// bind resolves an expression in the given scope. Aggregate calls are
// rejected here; the aggregate path rewrites them before binding.
func (b *binder) bind(e sql.Expr, sc *scope) (bexpr, error) {
	switch e := e.(type) {
	case *sql.ColumnRef:
		return b.bindColumn(e, sc)
	case *sql.Literal:
		return &litExpr{v: e.Val}, nil
	case *sql.Placeholder:
		if b.in == nil || e.N < 1 || e.N > len(b.in.args) {
			return nil, fmt.Errorf("no argument for placeholder %s", e.SQL())
		}
		lit := &litExpr{v: b.in.args[e.N-1]}
		if b.filter {
			slot := &b.in.slots[e.N-1]
			slot.uses = append(slot.uses, lit)
		} else {
			b.in.spilled = true // the plan may read the argument's value, not only its kind
		}
		return lit, nil
	case *sql.BinaryExpr:
		l, err := b.bind(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(e.R, sc)
		if err != nil {
			return nil, err
		}
		b.foldsArgument(e.L, e.R)
		return foldConst(&binExpr{op: e.Op, l: l, r: r}, l, r), nil
	case *sql.NegExpr:
		x, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		b.foldsArgument(e.E)
		return foldConst(&negExpr{e: x}, x), nil
	case *sql.CompareExpr:
		l, err := b.bind(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(e.R, sc)
		if err != nil {
			return nil, err
		}
		return newCmp(e.Op, l, r), nil
	case *sql.AndExpr:
		l, err := b.bind(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(e.R, sc)
		if err != nil {
			return nil, err
		}
		return &andExpr{l: l, r: r}, nil
	case *sql.OrExpr:
		l, err := b.bind(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(e.R, sc)
		if err != nil {
			return nil, err
		}
		return &orExpr{l: l, r: r}, nil
	case *sql.NotExpr:
		x, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		return &notExpr{e: x}, nil
	case *sql.BetweenExpr:
		v, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(e.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(e.Hi, sc)
		if err != nil {
			return nil, err
		}
		return &betweenExpr{e: v, lo: lo, hi: hi, not: e.Not}, nil
	case *sql.InExpr:
		v, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		if e.Sub != nil {
			sub, err := b.bindSubplan(e.Sub, sc)
			if err != nil {
				return nil, err
			}
			if sub.ncols != 1 {
				return nil, fmt.Errorf("IN sub-query must return one column, got %d", sub.ncols)
			}
			return &inSubExpr{e: v, sub: sub, not: e.Not}, nil
		}
		list := make([]bexpr, len(e.List))
		for i, x := range e.List {
			le, err := b.bind(x, sc)
			if err != nil {
				return nil, err
			}
			list[i] = le
		}
		return &inListExpr{e: v, list: list, not: e.Not}, nil
	case *sql.LikeExpr:
		v, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		p, err := b.bind(e.Pattern, sc)
		if err != nil {
			return nil, err
		}
		return &likeExpr{e: v, pattern: p, not: e.Not}, nil
	case *sql.IsNullExpr:
		v, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		return &isNullExpr{e: v, not: e.Not}, nil
	case *sql.ExistsExpr:
		sub, err := b.bindSubplan(e.Sub, sc)
		if err != nil {
			return nil, err
		}
		// Whether a row exists does not depend on what a final projection
		// would build from it, so `exists (select * ...)` copies no tuple
		// — unless an item could raise, which must still surface.
		if p, ok := sub.root.(*projectOp); ok && !exprsCanRaise(p.items) {
			sub.root = p.child
			placeTuples(sub.root, tupleHome{}) // a sub-plan root's rows escape to its caller
		}
		return &existsExpr{sub: sub, not: e.Not}, nil
	case *sql.SubqueryExpr:
		sub, err := b.bindSubplan(e.Sub, sc)
		if err != nil {
			return nil, err
		}
		if sub.ncols != 1 {
			return nil, fmt.Errorf("scalar sub-query must return one column, got %d", sub.ncols)
		}
		return &scalarSubExpr{sub: sub}, nil
	case *sql.CaseExpr:
		c := &caseExpr{}
		for _, w := range e.Whens {
			cond, err := b.bind(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			then, err := b.bind(w.Then, sc)
			if err != nil {
				return nil, err
			}
			c.whens = append(c.whens, boundWhen{cond: cond, then: then})
		}
		if e.Else != nil {
			els, err := b.bind(e.Else, sc)
			if err != nil {
				return nil, err
			}
			c.els = els
		}
		return c, nil
	case *sql.ExtractExpr:
		x, err := b.bind(e.E, sc)
		if err != nil {
			return nil, err
		}
		return &extractExpr{field: e.Field, e: x}, nil
	case *sql.FuncExpr:
		if e.IsAggregate() {
			return nil, fmt.Errorf("aggregate %s() is not allowed here", e.Name)
		}
		return nil, fmt.Errorf("unknown function %q", e.Name)
	default:
		return nil, fmt.Errorf("cannot bind %T", e)
	}
}

// foldConst replaces an arithmetic node whose operands are all literals
// by the literal it evaluates to, so `date '1994-01-01' + interval '1'
// year` costs a row nothing. A node whose evaluation fails (1/0) stays in
// place: its error must surface when, and only if, a row is evaluated.
// Parameters are runtime values and never fold.
func foldConst(e bexpr, operands ...bexpr) bexpr {
	for _, o := range operands {
		if _, ok := o.(*litExpr); !ok {
			return e
		}
	}
	v, err := e.eval(nil) // literals read no evaluation context
	if err != nil {
		return e
	}
	return &litExpr{v: v}
}

// foldsArgument spills the plan when a placeholder is an operand of
// arithmetic, which foldConst may evaluate at plan time.
func (b *binder) foldsArgument(operands ...sql.Expr) {
	for _, o := range operands {
		if _, ok := o.(*sql.Placeholder); ok && b.in != nil {
			b.in.spilled = true
		}
	}
}

// bindColumn resolves a column locally, falling back to the enclosing
// query: a reference to the outer query becomes a correlation parameter
// of the subquery being bound (one level of correlation is supported,
// which covers the TPC-H workload; see DESIGN.md).
func (b *binder) bindColumn(e *sql.ColumnRef, sc *scope) (bexpr, error) {
	pos, kind, err, ok := sc.resolve(e.Table, e.Name)
	if err != nil {
		return nil, err
	}
	if ok {
		return &colExpr{pos: pos, kind: kind}, nil
	}
	if sc.outer != nil && sc.params != nil {
		opos, _, oerr, ook := sc.outer.resolve(e.Table, e.Name)
		if oerr != nil {
			return nil, oerr
		}
		if ook {
			*sc.params = append(*sc.params, &colExpr{pos: opos})
			return &paramExpr{idx: len(*sc.params) - 1}, nil
		}
	}
	if e.Table != "" {
		return nil, fmt.Errorf("unknown column %s.%s", e.Table, e.Name)
	}
	return nil, fmt.Errorf("unknown column %q", e.Name)
}

// bindSubplan plans a nested SELECT, collecting its correlation
// parameters against the enclosing scope.
func (b *binder) bindSubplan(stmt *sql.SelectStmt, enclosing *scope) (*subplan, error) {
	if b.node == nil {
		return nil, fmt.Errorf("sub-query is not allowed in a constant expression")
	}
	var paramBinds []bexpr
	root, cols, err := b.node.planSelectScoped(stmt, enclosing, &paramBinds, b.in)
	if err != nil {
		return nil, err
	}
	s := &subplan{root: root, paramBinds: paramBinds, ncols: len(cols)}
	if b.in != nil {
		b.in.subplans = append(b.in.subplans, s)
	}
	return s, nil
}

// subplan is a planned nested query plus the expressions (evaluated in
// the enclosing tuple) that produce its correlation parameters.
type subplan struct {
	root       op
	paramBinds []bexpr
	ncols      int

	// cache materializes an uncorrelated sub-query once per execution.
	cached    bool
	cacheRows []sqltypes.Row

	// Scratch every run reuses, so a correlated probe allocates nothing per
	// outer row: safe because one goroutine evaluates a sub-plan and a run
	// never starts while another of the same sub-plan is open.
	ex     execCtx
	params []sqltypes.Value
	rows   []sqltypes.Row
}

func (s *subplan) correlated() bool { return len(s.paramBinds) > 0 }

// open binds the correlation parameters from the enclosing evaluation
// context and opens the plan under them. The caller closes the root.
func (s *subplan) open(ec *evalCtx) (*execCtx, error) {
	s.params = s.params[:0]
	for _, pb := range s.paramBinds {
		v, err := pb.eval(ec)
		if err != nil {
			return nil, err
		}
		s.params = append(s.params, v)
	}
	s.ex = execCtx{node: ec.ex.node, snapshot: ec.ex.snapshot, params: s.params, meter: ec.ex.meter, ctx: ec.ex.ctx, batchCap: ec.ex.batchCap}
	return &s.ex, s.root.open(&s.ex)
}

// run executes the subplan under the enclosing evaluation context and
// returns up to maxRows rows (maxRows < 0 means all). The slice is the
// sub-plan's and the next run rewrites it; an uncorrelated sub-plan caches
// it because it never runs again.
func (s *subplan) run(ec *evalCtx, maxRows int) ([]sqltypes.Row, error) {
	sub, err := s.open(ec)
	defer s.root.close()
	if err != nil {
		return nil, err
	}
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	rows := s.rows[:0]
	for maxRows < 0 || len(rows) < maxRows {
		b.Reset()
		if err := s.root.next(sub, b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			break
		}
		rows = append(rows, b.Rows...)
	}
	s.rows = rows
	if maxRows >= 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	return rows, nil
}

// hasRow reports whether the subplan yields at least one row: its first
// batch is empty only at end of stream.
func (s *subplan) hasRow(ec *evalCtx) (bool, error) {
	sub, err := s.open(ec)
	defer s.root.close()
	if err != nil {
		return false, err
	}
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	if err := s.root.next(sub, b); err != nil {
		return false, err
	}
	return b.Len() > 0, nil
}

// contains reports set membership for IN (sub-query) along with whether
// the set contained NULLs (for three-valued logic).
func (s *subplan) contains(ec *evalCtx, v sqltypes.Value) (found, sawNull bool, err error) {
	rows := s.cacheRows
	if !s.cached || s.correlated() {
		rows, err = s.run(ec, -1)
		if err != nil {
			return false, false, err
		}
		if !s.correlated() {
			s.cacheRows = rows
			s.cached = true
		}
	}
	for _, r := range rows {
		if r[0].IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(r[0], v) == 0 {
			return true, sawNull, nil
		}
	}
	return false, sawNull, nil
}

// scalar evaluates a scalar sub-query: zero rows yield NULL, more than
// one row is an error.
func (s *subplan) scalar(ec *evalCtx) (sqltypes.Value, error) {
	if s.cached && !s.correlated() {
		if len(s.cacheRows) == 0 {
			return sqltypes.Null(), nil
		}
		return s.cacheRows[0][0], nil
	}
	rows, err := s.run(ec, 2)
	if err != nil {
		return sqltypes.Null(), err
	}
	if len(rows) > 1 {
		return sqltypes.Null(), fmt.Errorf("scalar sub-query returned more than one row")
	}
	if !s.correlated() {
		s.cacheRows = rows
		s.cached = true
	}
	if len(rows) == 0 {
		return sqltypes.Null(), nil
	}
	return rows[0][0], nil
}
