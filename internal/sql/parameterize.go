package sql

import "apuama/internal/sqltypes"

// Parameterize turns sel into its shape — its WHERE predicates read
// their literal operands as placeholders $1 … $n, numbered in the order
// they are met — and returns the n arguments that give the statement back
// (Substitute). It rewrites sel in place, so the caller must own it and
// no longer need it as written (CloneSelect first otherwise). Two
// statements that differ only in those literals share a shape, so
// whatever is planned from the shape serves both.
//
// What is lifted: a literal-only operand (a literal, or arithmetic over
// literals) of = <> < <= > >= whose other operand is not literal-only, the
// bounds of a BETWEEN and the members of an IN list over a non-constant
// expression, in the WHERE clause and in the WHERE clauses of the
// sub-queries it holds, through AND, OR and NOT. An operand that is not a
// bare literal is lifted as the value fold gives it (nil: such operands
// stay), and only values of kind int, float, date and string are lifted.
// Nothing else is: not LIMIT, the length of an IN list, interval units,
// LIKE patterns, nor literals in the select list, CASE, aggregates, GROUP
// BY, ORDER BY or HAVING. A statement that already has placeholders is
// left as it is, with no arguments.
func Parameterize(sel *SelectStmt, fold func(Expr) (sqltypes.Value, bool)) []sqltypes.Value {
	if hasPlaceholder(sel) {
		return nil
	}
	p := parameterizer{fold: fold}
	p.where(sel)
	return p.args
}

// hasPlaceholder reports whether sel already reads a placeholder.
func hasPlaceholder(sel *SelectStmt) bool {
	has := false
	WalkSelect(sel, func(e Expr) bool {
		_, ok := e.(*Placeholder)
		has = has || ok
		return !has
	})
	return has
}

// Substitute returns a copy of sel with every placeholder Parameterize
// places replaced by the literal of its argument.
func Substitute(sel *SelectStmt, args []sqltypes.Value) *SelectStmt {
	out := CloneSelect(sel)
	arg := func(e Expr) Expr {
		if ph, ok := e.(*Placeholder); ok && ph.N >= 1 && ph.N <= len(args) {
			return &Literal{Val: args[ph.N-1]}
		}
		return e
	}
	WalkSelect(out, func(e Expr) bool {
		switch x := e.(type) {
		case *CompareExpr:
			x.L, x.R = arg(x.L), arg(x.R)
		case *BetweenExpr:
			x.Lo, x.Hi = arg(x.Lo), arg(x.Hi)
		case *InExpr:
			for i := range x.List {
				x.List[i] = arg(x.List[i])
			}
		}
		return true
	})
	return out
}

type parameterizer struct {
	fold func(Expr) (sqltypes.Value, bool)
	args []sqltypes.Value
}

func (p *parameterizer) where(s *SelectStmt) { s.Where = p.pred(s.Where) }

// pred lifts the operands of one predicate, left to right.
func (p *parameterizer) pred(e Expr) Expr {
	switch e := e.(type) {
	case *AndExpr:
		e.L = p.pred(e.L)
		e.R = p.pred(e.R)
	case *OrExpr:
		e.L = p.pred(e.L)
		e.R = p.pred(e.R)
	case *NotExpr:
		e.E = p.pred(e.E)
	case *CompareExpr:
		lc, rc := literalOnly(e.L), literalOnly(e.R)
		e.L = p.operand(e.L, lc && !rc)
		e.R = p.operand(e.R, rc && !lc)
	case *BetweenExpr:
		lift := !literalOnly(e.E)
		e.E = p.operand(e.E, false)
		e.Lo = p.operand(e.Lo, lift)
		e.Hi = p.operand(e.Hi, lift)
	case *InExpr:
		e.E = p.operand(e.E, false)
		if e.Sub != nil {
			p.where(e.Sub)
			break
		}
		lift := !literalOnly(e.E)
		for i, m := range e.List {
			e.List[i] = p.operand(m, lift)
		}
	case *ExistsExpr:
		p.where(e.Sub)
	}
	return e
}

// operand lifts e when lift is set and it is literal-only, and otherwise
// parameterizes the sub-query it is.
func (p *parameterizer) operand(e Expr, lift bool) Expr {
	if sq, ok := e.(*SubqueryExpr); ok {
		p.where(sq.Sub)
		return e
	}
	if !lift || !literalOnly(e) {
		return e
	}
	var v sqltypes.Value
	if lit, ok := e.(*Literal); ok {
		v = lit.Val
	} else if p.fold == nil {
		return e
	} else if v, ok = p.fold(e); !ok {
		return e
	}
	switch v.K {
	case sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindDate, sqltypes.KindString:
	default:
		return e
	}
	p.args = append(p.args, v)
	return &Placeholder{N: len(p.args)}
}

// literalOnly reports whether e is a literal or arithmetic over literals.
func literalOnly(e Expr) bool {
	switch e := e.(type) {
	case *Literal:
		return true
	case *BinaryExpr:
		return literalOnly(e.L) && literalOnly(e.R)
	case *NegExpr:
		return literalOnly(e.E)
	}
	return false
}
