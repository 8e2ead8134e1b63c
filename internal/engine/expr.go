package engine

import (
	"fmt"
	"strings"

	"apuama/internal/sqltypes"
)

// Bound expressions: the binder resolves sql.Expr trees against a scope
// (column positions in the operator's output tuple, correlation
// parameters, aggregate slots) producing bexpr trees that evaluate
// without name lookups.

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	ex  *execCtx     // node, snapshot, correlation params
	row sqltypes.Row // current input tuple
}

// bexpr is a bound expression.
type bexpr interface {
	eval(ec *evalCtx) (sqltypes.Value, error)
}

// colExpr reads a position in the current tuple.
type colExpr struct{ pos int }

func (e *colExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.row[e.pos], nil }

// paramExpr reads a correlation parameter supplied by the enclosing query.
type paramExpr struct{ idx int }

func (e *paramExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.ex.params[e.idx], nil }

// litExpr is a constant.
type litExpr struct{ v sqltypes.Value }

func (e *litExpr) eval(*evalCtx) (sqltypes.Value, error) { return e.v, nil }

// binExpr is arithmetic.
type binExpr struct {
	op   byte
	l, r bexpr
}

func (e *binExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	l, err := e.l.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	r, err := e.r.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	switch e.op {
	case '+':
		return sqltypes.Add(l, r)
	case '-':
		return sqltypes.Sub(l, r)
	case '*':
		return sqltypes.Mul(l, r)
	case '/':
		return sqltypes.Div(l, r)
	}
	return sqltypes.Null(), fmt.Errorf("unknown arithmetic operator %c", e.op)
}

// negExpr is unary minus.
type negExpr struct{ e bexpr }

func (e *negExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	return sqltypes.Neg(v)
}

// tri is a SQL truth value. Boolean nodes compute it natively instead of
// boxing a KindBool Value for the parent to unbox.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// value is the truth value as the SQL datum eval returns.
func (t tri) value() sqltypes.Value {
	if t == triNull {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(t == triTrue)
}

// boolExpr is a bexpr whose native result is a truth value: comparisons,
// connectives and the other predicates. Their eval is evalTruth.
type boolExpr interface {
	bexpr
	truth(ec *evalCtx) (tri, error)
}

func evalTruth(e boolExpr, ec *evalCtx) (sqltypes.Value, error) {
	t, err := e.truth(ec)
	if err != nil {
		return sqltypes.Null(), err
	}
	return t.value(), nil
}

// truthOf is the one way a value enters boolean context (connective
// operands, row filters, CASE WHEN). A boolean node answers natively; any
// other expression is evaluated and must yield a boolean or NULL.
// Non-boolean kinds are a type error rather than a truthiness coercion: a
// bare string column used as a predicate must fail the same way
// everywhere, or paths that AND extra conjuncts onto a query (the SVP
// range rewrite) would silently disagree with the original about which
// rows qualify. A row filter keeps a row on triTrue only (NULL means "not
// true").
func truthOf(e bexpr, ec *evalCtx) (tri, error) {
	if b, ok := e.(boolExpr); ok {
		return b.truth(ec)
	}
	v, err := e.eval(ec)
	if err != nil {
		return triNull, err
	}
	switch v.K {
	case sqltypes.KindBool:
		return triOf(v.I != 0), nil
	case sqltypes.KindNull:
		return triNull, nil
	}
	return triNull, fmt.Errorf("boolean condition expected, got %s value %s", v.K, v)
}

// operand returns e's value by pointer so comparison nodes copy no Value
// where one already has a home: the tuple slot for a column, the node
// itself for a literal. Anything else is evaluated into the caller's
// scratch slot (on the caller's stack: bound trees are shared by parallel
// workers and hold no per-evaluation state).
func operand(e bexpr, ec *evalCtx, scratch *sqltypes.Value) (*sqltypes.Value, error) {
	switch x := e.(type) {
	case *colExpr:
		return &ec.row[x.pos], nil
	case *litExpr:
		return &x.v, nil
	}
	v, err := e.eval(ec)
	*scratch = v
	return scratch, err
}

// compareFast is sqltypes.Compare with the same-kind pairs a scan filter
// meets decided inline; every other pairing (mixed numeric kinds, NULLs,
// intervals) is Compare's call, so the ordering is Compare's by
// construction.
func compareFast(a, b *sqltypes.Value) int {
	if a.K == b.K {
		switch a.K {
		case sqltypes.KindInt, sqltypes.KindDate, sqltypes.KindBool:
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		case sqltypes.KindFloat:
			switch {
			case a.F < b.F:
				return -1
			case a.F > b.F:
				return 1
			}
			return 0
		case sqltypes.KindString:
			return strings.Compare(a.S, b.S)
		}
	}
	return sqltypes.Compare(*a, *b)
}

// cmpOp is a comparison operator resolved from its SQL spelling when the
// node is built, so evaluation switches on a byte, not a string.
type cmpOp uint8

const (
	cmpUnknown cmpOp = iota
	cmpEq
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// cmpExpr is a comparison with SQL three-valued logic: NULL operands
// yield NULL.
type cmpExpr struct {
	op   string
	code cmpOp
	l, r bexpr
}

// newCmp builds a comparison node; both binders go through it.
func newCmp(op string, l, r bexpr) *cmpExpr {
	e := &cmpExpr{op: op, l: l, r: r}
	switch op {
	case "=":
		e.code = cmpEq
	case "<>":
		e.code = cmpNe
	case "<":
		e.code = cmpLt
	case "<=":
		e.code = cmpLe
	case ">":
		e.code = cmpGt
	case ">=":
		e.code = cmpGe
	}
	return e
}

func (e *cmpExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *cmpExpr) truth(ec *evalCtx) (tri, error) {
	var ls, rs sqltypes.Value
	l, err := operand(e.l, ec, &ls)
	if err != nil {
		return triNull, err
	}
	r, err := operand(e.r, ec, &rs)
	if err != nil {
		return triNull, err
	}
	if l.K == sqltypes.KindNull || r.K == sqltypes.KindNull {
		return triNull, nil
	}
	c := compareFast(l, r)
	switch e.code {
	case cmpEq:
		return triOf(c == 0), nil
	case cmpNe:
		return triOf(c != 0), nil
	case cmpLt:
		return triOf(c < 0), nil
	case cmpLe:
		return triOf(c <= 0), nil
	case cmpGt:
		return triOf(c > 0), nil
	case cmpGe:
		return triOf(c >= 0), nil
	}
	return triNull, fmt.Errorf("unknown comparison %q", e.op)
}

// Three-valued AND/OR/NOT (Kleene logic). Evaluation order is part of
// the contract: a FALSE left operand of AND (TRUE of OR) decides without
// evaluating the right one, while a NULL left operand does evaluate it, so
// the right side's errors surface for exactly the same rows either way
// the connective is reached.

type andExpr struct{ l, r bexpr }

func (e *andExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *andExpr) truth(ec *evalCtx) (tri, error) {
	l, err := truthOf(e.l, ec)
	if err != nil || l == triFalse {
		return triFalse, err
	}
	r, err := truthOf(e.r, ec)
	if err != nil || r == triFalse {
		return triFalse, err
	}
	if l == triNull || r == triNull {
		return triNull, nil
	}
	return triTrue, nil
}

type orExpr struct{ l, r bexpr }

func (e *orExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *orExpr) truth(ec *evalCtx) (tri, error) {
	l, err := truthOf(e.l, ec)
	if err != nil || l == triTrue {
		return l, err
	}
	r, err := truthOf(e.r, ec)
	if err != nil || r == triTrue {
		return r, err
	}
	if l == triNull || r == triNull {
		return triNull, nil
	}
	return triFalse, nil
}

type notExpr struct{ e bexpr }

func (e *notExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *notExpr) truth(ec *evalCtx) (tri, error) {
	t, err := truthOf(e.e, ec)
	if err != nil || t == triNull {
		return triNull, err
	}
	return triOf(t == triFalse), nil
}

// betweenExpr is lo <= e <= hi with 3VL.
type betweenExpr struct {
	e, lo, hi bexpr
	not       bool
}

func (e *betweenExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *betweenExpr) truth(ec *evalCtx) (tri, error) {
	var vs, los, his sqltypes.Value
	v, err := operand(e.e, ec, &vs)
	if err != nil {
		return triNull, err
	}
	lo, err := operand(e.lo, ec, &los)
	if err != nil {
		return triNull, err
	}
	hi, err := operand(e.hi, ec, &his)
	if err != nil {
		return triNull, err
	}
	if v.K == sqltypes.KindNull || lo.K == sqltypes.KindNull || hi.K == sqltypes.KindNull {
		return triNull, nil
	}
	in := compareFast(v, lo) >= 0 && compareFast(v, hi) <= 0
	return triOf(in != e.not), nil
}

// inListExpr is e IN (v1, v2, ...). NULL semantics: if no match and any
// member was NULL, the result is NULL.
type inListExpr struct {
	e    bexpr
	list []bexpr
	not  bool
}

func (e *inListExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *inListExpr) truth(ec *evalCtx) (tri, error) {
	var vs, ms sqltypes.Value
	v, err := operand(e.e, ec, &vs)
	if err != nil {
		return triNull, err
	}
	if v.K == sqltypes.KindNull {
		return triNull, nil
	}
	sawNull := false
	found := false
	for _, le := range e.list {
		m, err := operand(le, ec, &ms)
		if err != nil {
			return triNull, err
		}
		if m.K == sqltypes.KindNull {
			sawNull = true
			continue
		}
		if compareFast(v, m) == 0 {
			found = true
			break
		}
	}
	if !found && sawNull {
		return triNull, nil
	}
	return triOf(found != e.not), nil
}

// likeExpr matches SQL LIKE patterns (% and _ wildcards).
type likeExpr struct {
	e       bexpr
	pattern bexpr
	not     bool
}

func (e *likeExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *likeExpr) truth(ec *evalCtx) (tri, error) {
	var vs, ps sqltypes.Value
	v, err := operand(e.e, ec, &vs)
	if err != nil {
		return triNull, err
	}
	p, err := operand(e.pattern, ec, &ps)
	if err != nil {
		return triNull, err
	}
	if v.K == sqltypes.KindNull || p.K == sqltypes.KindNull {
		return triNull, nil
	}
	return triOf(likeMatch(v.S, p.S) != e.not), nil
}

// likeMatch implements %/_ pattern matching with the classic two-pointer
// backtracking algorithm (linear for TPC-H's prefix/infix patterns).
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			match = si
			pi++
		} else if star != -1 {
			pi = star + 1
			match++
			si = match
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// isNullExpr is e IS [NOT] NULL.
type isNullExpr struct {
	e   bexpr
	not bool
}

func (e *isNullExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *isNullExpr) truth(ec *evalCtx) (tri, error) {
	var vs sqltypes.Value
	v, err := operand(e.e, ec, &vs)
	if err != nil {
		return triNull, err
	}
	return triOf((v.K == sqltypes.KindNull) != e.not), nil
}

// caseExpr evaluates WHEN arms in order.
type caseExpr struct {
	whens []boundWhen
	els   bexpr // may be nil -> NULL
}

type boundWhen struct{ cond, then bexpr }

func (e *caseExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	for _, w := range e.whens {
		c, err := truthOf(w.cond, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if c == triTrue {
			return w.then.eval(ec)
		}
	}
	if e.els != nil {
		return e.els.eval(ec)
	}
	return sqltypes.Null(), nil
}

// extractExpr is EXTRACT(field FROM date).
type extractExpr struct {
	field string
	e     bexpr
}

func (e *extractExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	v, err := e.e.eval(ec)
	if err != nil || v.IsNull() {
		return sqltypes.Null(), err
	}
	if v.K != sqltypes.KindDate {
		return sqltypes.Null(), fmt.Errorf("extract(%s) requires a date, got %s", e.field, v.K)
	}
	y, m, d := v.DateYMD()
	switch e.field {
	case "year":
		return sqltypes.NewInt(int64(y)), nil
	case "month":
		return sqltypes.NewInt(int64(m)), nil
	case "day":
		return sqltypes.NewInt(int64(d)), nil
	}
	return sqltypes.Null(), fmt.Errorf("unknown extract field %q", e.field)
}

// aggRefExpr reads an aggregation output slot (group keys first, then
// aggregate values); it only appears above an aggregate operator.
type aggRefExpr struct{ pos int }

func (e *aggRefExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return ec.row[e.pos], nil }

// existsExpr runs a correlated or uncorrelated sub-plan and reports
// whether it yields at least one row.
type existsExpr struct {
	sub *subplan
	not bool
}

func (e *existsExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *existsExpr) truth(ec *evalCtx) (tri, error) {
	found, err := e.sub.hasRow(ec)
	if err != nil {
		return triNull, err
	}
	return triOf(found != e.not), nil
}

// inSubExpr is e IN (SELECT ...). Uncorrelated sub-plans are materialized
// once per query execution.
type inSubExpr struct {
	e   bexpr
	sub *subplan
	not bool
}

func (e *inSubExpr) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(e, ec) }

func (e *inSubExpr) truth(ec *evalCtx) (tri, error) {
	v, err := e.e.eval(ec)
	if err != nil {
		return triNull, err
	}
	if v.IsNull() {
		return triNull, nil
	}
	found, sawNull, err := e.sub.contains(ec, v)
	if err != nil {
		return triNull, err
	}
	if !found && sawNull {
		return triNull, nil
	}
	return triOf(found != e.not), nil
}

// scalarSubExpr is (SELECT single-value ...).
type scalarSubExpr struct {
	sub *subplan
}

func (e *scalarSubExpr) eval(ec *evalCtx) (sqltypes.Value, error) {
	return e.sub.scalar(ec)
}

// exprString is a debugging aid used in error messages.
func exprString(e bexpr) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", e), "*engine.")
}
