package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
)

// The reference evaluator: the value-returning eval bodies this package
// had before boolean nodes learned to compute truth values natively,
// moved here verbatim (recursion goes through refEval; leaves, which did
// not change, evaluate themselves). Every boolean result is boxed into a
// KindBool Value and unboxed by refBoolOperand one level up, operators
// are matched as strings, and sqltypes.Compare orders everything — slow,
// and the definition of what truthOf/eval must keep computing, including
// which error surfaces and whether the right operand is evaluated at all.

func refBoolOperand(v sqltypes.Value) (isTrue, isNull bool, err error) {
	switch v.K {
	case sqltypes.KindBool:
		return v.I != 0, false, nil
	case sqltypes.KindNull:
		return false, true, nil
	default:
		return false, false, fmt.Errorf("boolean condition expected, got %s value %s", v.K, v)
	}
}

// refFilterTrue reports whether a predicate value keeps a row (NULL means
// "not true").
func refFilterTrue(v sqltypes.Value) (bool, error) {
	t, _, err := refBoolOperand(v)
	return t, err
}

func refEval(e bexpr, ec *evalCtx) (sqltypes.Value, error) {
	switch e := e.(type) {
	case *binExpr:
		l, err := refEval(e.l, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		r, err := refEval(e.r, ec)
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
	case *negExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		return sqltypes.Neg(v)
	case *cmpExpr:
		l, err := refEval(e.l, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		r, err := refEval(e.r, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null(), nil
		}
		c := sqltypes.Compare(l, r)
		var ok bool
		switch e.op {
		case "=":
			ok = c == 0
		case "<>":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		default:
			return sqltypes.Null(), fmt.Errorf("unknown comparison %q", e.op)
		}
		return sqltypes.NewBool(ok), nil
	case *andExpr:
		l, err := refEval(e.l, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		lt, ln, err := refBoolOperand(l)
		if err != nil {
			return sqltypes.Null(), err
		}
		if !lt && !ln {
			return sqltypes.NewBool(false), nil
		}
		r, err := refEval(e.r, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		rt, rn, err := refBoolOperand(r)
		if err != nil {
			return sqltypes.Null(), err
		}
		if !rt && !rn {
			return sqltypes.NewBool(false), nil
		}
		if ln || rn {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(true), nil
	case *orExpr:
		l, err := refEval(e.l, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		lt, ln, err := refBoolOperand(l)
		if err != nil {
			return sqltypes.Null(), err
		}
		if lt {
			return sqltypes.NewBool(true), nil
		}
		r, err := refEval(e.r, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		rt, rn, err := refBoolOperand(r)
		if err != nil {
			return sqltypes.Null(), err
		}
		if rt {
			return sqltypes.NewBool(true), nil
		}
		if ln || rn {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(false), nil
	case *notExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		t, n, err := refBoolOperand(v)
		if err != nil {
			return sqltypes.Null(), err
		}
		if n {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewBool(!t), nil
	case *betweenExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		lo, err := refEval(e.lo, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		hi, err := refEval(e.hi, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return sqltypes.Null(), nil
		}
		in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
		if e.not {
			in = !in
		}
		return sqltypes.NewBool(in), nil
	case *inListExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if v.IsNull() {
			return sqltypes.Null(), nil
		}
		sawNull := false
		found := false
		for _, le := range e.list {
			m, err := refEval(le, ec)
			if err != nil {
				return sqltypes.Null(), err
			}
			if m.IsNull() {
				sawNull = true
				continue
			}
			if sqltypes.Compare(v, m) == 0 {
				found = true
				break
			}
		}
		if !found && sawNull {
			return sqltypes.Null(), nil
		}
		if e.not {
			found = !found
		}
		return sqltypes.NewBool(found), nil
	case *likeExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		p, err := refEval(e.pattern, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if v.IsNull() || p.IsNull() {
			return sqltypes.Null(), nil
		}
		ok := likeMatch(v.S, p.S)
		if e.not {
			ok = !ok
		}
		return sqltypes.NewBool(ok), nil
	case *isNullExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		isNull := v.IsNull()
		if e.not {
			isNull = !isNull
		}
		return sqltypes.NewBool(isNull), nil
	case *caseExpr:
		for _, w := range e.whens {
			c, err := refEval(w.cond, ec)
			if err != nil {
				return sqltypes.Null(), err
			}
			ct, err := refFilterTrue(c)
			if err != nil {
				return sqltypes.Null(), err
			}
			if ct {
				return refEval(w.then, ec)
			}
		}
		if e.els != nil {
			return refEval(e.els, ec)
		}
		return sqltypes.Null(), nil
	case *extractExpr:
		v, err := refEval(e.e, ec)
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
	case *existsExpr:
		found, err := e.sub.hasRow(ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if e.not {
			found = !found
		}
		return sqltypes.NewBool(found), nil
	case *inSubExpr:
		v, err := refEval(e.e, ec)
		if err != nil {
			return sqltypes.Null(), err
		}
		if v.IsNull() {
			return sqltypes.Null(), nil
		}
		found, sawNull, err := e.sub.contains(ec, v)
		if err != nil {
			return sqltypes.Null(), err
		}
		if !found && sawNull {
			return sqltypes.Null(), nil
		}
		if e.not {
			found = !found
		}
		return sqltypes.NewBool(found), nil
	default: // colExpr, paramExpr, litExpr, aggRefExpr: unchanged leaves
		return e.eval(ec)
	}
}

// --- random expressions over random rows ---

const refRowWidth = 6

// rowsOp is a sub-plan stub: it emits a fixed row list.
type rowsOp struct {
	rows []sqltypes.Row
	pos  int
}

func (o *rowsOp) open(*execCtx) error { o.pos = 0; return nil }
func (o *rowsOp) next(_ *execCtx, out *sqltypes.Batch) error {
	for o.pos < len(o.rows) && !out.Full() {
		out.Append(o.rows[o.pos])
		o.pos++
	}
	return nil
}
func (o *rowsOp) close() {}

type exprGen struct{ r *rand.Rand }

func (g *exprGen) value() sqltypes.Value {
	switch g.r.Intn(9) {
	case 0:
		return sqltypes.Null()
	case 1, 2:
		return sqltypes.NewInt(int64(g.r.Intn(5)) - 1) // 0 included: division by zero
	case 3:
		return sqltypes.NewFloat(float64(g.r.Intn(5)-1) / 2)
	case 4:
		return sqltypes.NewDate(9000 + int64(g.r.Intn(3)))
	case 5:
		return sqltypes.NewString([]string{"", "a", "ab", "PROMO", "b%"}[g.r.Intn(5)])
	case 6:
		return sqltypes.NewBool(g.r.Intn(2) == 0)
	case 7:
		return sqltypes.NewInterval(int64(g.r.Intn(3)), []string{"day", "month", "year"}[g.r.Intn(3)])
	default:
		return sqltypes.NewFloat(math.NaN())
	}
}

func (g *exprGen) row() sqltypes.Row {
	row := make(sqltypes.Row, refRowWidth)
	for i := range row {
		row[i] = g.value()
	}
	return row
}

func (g *exprGen) subplan(depth int) *subplan {
	s := &subplan{root: &rowsOp{}, ncols: 1}
	for n := g.r.Intn(3); n > 0; n-- {
		s.root.(*rowsOp).rows = append(s.root.(*rowsOp).rows, sqltypes.Row{g.value()})
	}
	if g.r.Intn(2) == 0 { // correlated: its parameter is evaluated (and may fail) per row
		s.paramBinds = []bexpr{g.scalar(depth - 1)}
	}
	return s
}

// scalar generates a value-producing expression; now and then a boolean
// one, so truth values also travel as values (`(a < b) = true`).
func (g *exprGen) scalar(depth int) bexpr {
	if depth <= 0 {
		switch g.r.Intn(3) {
		case 0:
			return &litExpr{v: g.value()}
		case 1:
			return &paramExpr{idx: g.r.Intn(2)}
		default:
			return &colExpr{pos: g.r.Intn(refRowWidth)}
		}
	}
	switch g.r.Intn(8) {
	case 0, 1:
		return &binExpr{op: "+-*/"[g.r.Intn(4)], l: g.scalar(depth - 1), r: g.scalar(depth - 1)}
	case 2:
		return &negExpr{e: g.scalar(depth - 1)}
	case 3:
		c := &caseExpr{}
		for n := 1 + g.r.Intn(2); n > 0; n-- {
			c.whens = append(c.whens, boundWhen{cond: g.operand(depth - 1), then: g.scalar(depth - 1)})
		}
		if g.r.Intn(2) == 0 {
			c.els = g.scalar(depth - 1)
		}
		return c
	case 4:
		return &extractExpr{field: []string{"year", "month", "day", "week"}[g.r.Intn(4)], e: g.scalar(depth - 1)}
	case 5:
		return g.boolean(depth - 1)
	default:
		return g.scalar(0)
	}
}

// operand generates something for boolean position: usually a boolean
// node, sometimes any scalar (a type error unless it happens to be a
// boolean or NULL).
func (g *exprGen) operand(depth int) bexpr {
	if g.r.Intn(5) == 0 {
		return g.scalar(depth)
	}
	return g.boolean(depth)
}

func (g *exprGen) boolean(depth int) bexpr {
	not := g.r.Intn(2) == 0
	switch g.r.Intn(12) {
	case 0, 1, 2:
		ops := []string{"=", "<>", "<", "<=", ">", ">=", "=", "<", "~"} // "~": unknown operator
		return newCmp(ops[g.r.Intn(len(ops))], g.scalar(depth-1), g.scalar(depth-1))
	case 3, 4:
		return &andExpr{l: g.operand(depth - 1), r: g.operand(depth - 1)}
	case 5:
		return &orExpr{l: g.operand(depth - 1), r: g.operand(depth - 1)}
	case 6:
		return &notExpr{e: g.operand(depth - 1)}
	case 7:
		return &betweenExpr{e: g.scalar(depth - 1), lo: g.scalar(depth - 1), hi: g.scalar(depth - 1), not: not}
	case 8:
		in := &inListExpr{e: g.scalar(depth - 1), not: not}
		for n := g.r.Intn(4); n > 0; n-- {
			in.list = append(in.list, g.scalar(depth-1))
		}
		return in
	case 9:
		return &likeExpr{e: g.scalar(depth - 1), pattern: g.scalar(0), not: not}
	case 10:
		return &isNullExpr{e: g.scalar(depth - 1), not: not}
	default:
		if g.r.Intn(2) == 0 {
			return &existsExpr{sub: g.subplan(depth), not: not}
		}
		return &inSubExpr{e: g.scalar(depth - 1), sub: g.subplan(depth), not: not}
	}
}

func sameValue(a, b sqltypes.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestTruthMatchesReferenceEvaluator is the differential property test:
// over seeded random expression trees and random rows, eval and truthOf
// agree with the reference evaluator on the result and on the error.
func TestTruthMatchesReferenceEvaluator(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(20))}
	ex := &execCtx{meter: costmodel.NewMeter(costmodel.TestConfig())}
	const trees, rowsPerTree = 2500, 5
	errs, nulls, trues := 0, 0, 0
	for i := 0; i < trees; i++ {
		var e bexpr
		if i%4 == 0 {
			e = g.scalar(3)
		} else {
			e = g.operand(3)
		}
		for j := 0; j < rowsPerTree; j++ {
			ex.params = []sqltypes.Value{g.value(), g.value()}
			ec := &evalCtx{ex: ex, row: g.row()}
			want, wantErr := refEval(e, ec)
			got, gotErr := e.eval(ec)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("tree %d (%s) row %v: eval error %v, reference %v", i, exprString(e), ec.row, gotErr, wantErr)
			}
			if wantErr == nil && !sameValue(got, want) {
				t.Fatalf("tree %d (%s) row %v: eval = %v (%s), reference %v (%s)", i, exprString(e), ec.row, got, got.K, want, want.K)
			}

			// Boolean context: the reference unboxes the value it computed.
			var wantTruth tri
			if wantErr == nil {
				var isTrue, isNull bool
				if isTrue, isNull, wantErr = refBoolOperand(want); wantErr == nil {
					wantTruth = triOf(isTrue)
					if isNull {
						wantTruth = triNull
					}
				}
			}
			gotTruth, gotErr := truthOf(e, ec)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("tree %d (%s) row %v: truthOf error %v, reference %v", i, exprString(e), ec.row, gotErr, wantErr)
			}
			if wantErr == nil && gotTruth != wantTruth {
				t.Fatalf("tree %d (%s) row %v: truthOf = %d, reference %d", i, exprString(e), ec.row, gotTruth, wantTruth)
			}
			switch {
			case wantErr != nil:
				errs++
			case wantTruth == triNull:
				nulls++
			case wantTruth == triTrue:
				trues++
			}
		}
	}
	// The generator must actually reach all four outcomes, not drown in one.
	total := trees * rowsPerTree
	if falses := total - errs - nulls - trues; errs < total/20 || nulls < total/20 || trues < total/20 || falses < total/20 {
		t.Fatalf("outcomes too skewed over %d cases: %d errors, %d NULL, %d TRUE, %d FALSE", total, errs, nulls, trues, falses)
	}
}

// TestCompareFastMatchesCompare checks the inlined comparison against
// sqltypes.Compare over every pair of kinds (and several values of each).
func TestCompareFastMatchesCompare(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null(),
		sqltypes.NewInt(-3), sqltypes.NewInt(0), sqltypes.NewInt(2), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewFloat(-3), sqltypes.NewFloat(0), sqltypes.NewFloat(2), sqltypes.NewFloat(2.5),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewString(""), sqltypes.NewString("2"), sqltypes.NewString("a"), sqltypes.NewString("ab"),
		sqltypes.NewDate(0), sqltypes.NewDate(2), sqltypes.NewDate(9131),
		sqltypes.NewBool(false), sqltypes.NewBool(true),
		sqltypes.NewInterval(2, "day"), sqltypes.NewInterval(2, "year"), sqltypes.NewInterval(3, "day"),
	}
	kinds := map[sqltypes.Kind]bool{}
	for i := range vals {
		kinds[vals[i].K] = true
		for j := range vals {
			if got, want := compareFast(&vals[i], &vals[j]), sqltypes.Compare(vals[i], vals[j]); got != want {
				t.Errorf("compareFast(%s %v, %s %v) = %d, Compare = %d", vals[i].K, vals[i], vals[j].K, vals[j], got, want)
			}
		}
	}
	if len(kinds) != int(sqltypes.KindInterval)+1 {
		t.Fatalf("only %d kinds covered", len(kinds))
	}
}
