package sql

// CloneSelect returns a deep copy of a SELECT statement. The Apuama
// rewriter clones the incoming query once per node before adding the
// virtual-partition range predicate.
func CloneSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{Distinct: s.Distinct}
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{Star: it.Star, Expr: CloneExpr(it.Expr), Alias: it.Alias}
	}
	out.From = append([]TableRef(nil), s.From...)
	out.Where = CloneExpr(s.Where)
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, CloneExpr(g))
	}
	out.Having = CloneExpr(s.Having)
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	if s.Limit != nil {
		n := *s.Limit
		out.Limit = &n
	}
	return out
}

// CloneExpr returns a deep copy of an expression tree.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *e
		return &c
	case *Literal:
		c := *e
		return &c
	case *Placeholder:
		c := *e
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *CompareExpr:
		return &CompareExpr{Op: e.Op, L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *AndExpr:
		return &AndExpr{L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *OrExpr:
		return &OrExpr{L: CloneExpr(e.L), R: CloneExpr(e.R)}
	case *NotExpr:
		return &NotExpr{E: CloneExpr(e.E)}
	case *BetweenExpr:
		return &BetweenExpr{E: CloneExpr(e.E), Lo: CloneExpr(e.Lo), Hi: CloneExpr(e.Hi), Not: e.Not}
	case *InExpr:
		c := &InExpr{E: CloneExpr(e.E), Not: e.Not, Sub: CloneSelect(e.Sub)}
		for _, x := range e.List {
			c.List = append(c.List, CloneExpr(x))
		}
		return c
	case *LikeExpr:
		return &LikeExpr{E: CloneExpr(e.E), Pattern: CloneExpr(e.Pattern), Not: e.Not}
	case *IsNullExpr:
		return &IsNullExpr{E: CloneExpr(e.E), Not: e.Not}
	case *ExistsExpr:
		return &ExistsExpr{Sub: CloneSelect(e.Sub), Not: e.Not}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: CloneSelect(e.Sub)}
	case *CaseExpr:
		c := &CaseExpr{Else: CloneExpr(e.Else)}
		for _, w := range e.Whens {
			c.Whens = append(c.Whens, When{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)})
		}
		return c
	case *FuncExpr:
		c := &FuncExpr{Name: e.Name, Star: e.Star, Distinct: e.Distinct}
		for _, a := range e.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *ExtractExpr:
		return &ExtractExpr{Field: e.Field, E: CloneExpr(e.E)}
	case *NegExpr:
		return &NegExpr{E: CloneExpr(e.E)}
	default:
		panic("sql: CloneExpr: unknown expression type")
	}
}

// WalkExpr calls fn on every node of the expression tree, descending into
// sub-selects' expressions as well. fn returning false prunes descent.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *CompareExpr:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *AndExpr:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *OrExpr:
		WalkExpr(e.L, fn)
		WalkExpr(e.R, fn)
	case *NotExpr:
		WalkExpr(e.E, fn)
	case *BetweenExpr:
		WalkExpr(e.E, fn)
		WalkExpr(e.Lo, fn)
		WalkExpr(e.Hi, fn)
	case *InExpr:
		WalkExpr(e.E, fn)
		for _, x := range e.List {
			WalkExpr(x, fn)
		}
		if e.Sub != nil {
			WalkSelect(e.Sub, fn)
		}
	case *LikeExpr:
		WalkExpr(e.E, fn)
		WalkExpr(e.Pattern, fn)
	case *IsNullExpr:
		WalkExpr(e.E, fn)
	case *ExistsExpr:
		WalkSelect(e.Sub, fn)
	case *SubqueryExpr:
		WalkSelect(e.Sub, fn)
	case *CaseExpr:
		for _, w := range e.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(e.Else, fn)
	case *FuncExpr:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *ExtractExpr:
		WalkExpr(e.E, fn)
	case *NegExpr:
		WalkExpr(e.E, fn)
	}
}

// WalkSelect applies fn to every expression in the statement, including
// nested sub-selects.
func WalkSelect(s *SelectStmt, fn func(Expr) bool) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		WalkExpr(it.Expr, fn)
	}
	WalkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		WalkExpr(g, fn)
	}
	WalkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, fn)
	}
}

// Subqueries collects every nested SELECT (EXISTS, IN, scalar) in the
// statement, depth-first.
func Subqueries(s *SelectStmt) []*SelectStmt {
	var out []*SelectStmt
	WalkSelect(s, func(e Expr) bool {
		switch e := e.(type) {
		case *ExistsExpr:
			out = append(out, e.Sub)
		case *InExpr:
			if e.Sub != nil {
				out = append(out, e.Sub)
			}
		case *SubqueryExpr:
			out = append(out, e.Sub)
		}
		return true
	})
	return out
}

// ReferencedTables returns the names (not aliases) of every table
// referenced anywhere in the statement, including sub-queries.
func ReferencedTables(s *SelectStmt) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(q *SelectStmt)
	visit = func(q *SelectStmt) {
		if q == nil {
			return
		}
		for _, t := range q.From {
			if !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
		for _, sub := range Subqueries(q) {
			visit(sub)
		}
	}
	visit(s)
	return out
}
