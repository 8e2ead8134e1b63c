package engine

import (
	"math"
	"strings"
	"sync"
	"time"

	"apuama/internal/sqltypes"
)

// Batch kernels: the layer under the scan, filter, aggregate and hash-join
// operators that works a batch of rows at a time instead of walking the
// bound tree once per row. A kernel is compiled once per plan from the
// bound expression, holds no per-evaluation state (like the tree) and
// decides per row, from Value.K, whether
// its typed fast lane applies; every other row takes the slow lane, which
// is the tree's own truth/eval — so dynamic typing, NULLs and mixed kinds
// mean exactly what the per-row evaluator says they mean, and the
// evaluator stays the oracle the differential tests compare against.

// --- row filters ---

// rowFilter is a conjunctive row predicate compiled for batch evaluation:
// it keeps the rows on which every conjunct is TRUE. Conjuncts of the
// shapes a selection-vector kernel understands run first, one tight loop
// per conjunct over the batch's surviving ordinals; every other conjunct
// runs per surviving row, in written order, through truthOf.
//
// Order contract: a conjunct that can raise sees exactly the rows the
// per-row AND chain would have shown it — those no earlier conjunct made
// FALSE — and raises in the same row-major order. So kernels only move
// ahead of conjuncts that cannot raise (a kernel written after a raising
// conjunct stays behind it, in rest), and while anything in rest can
// raise, a row an earlier conjunct left NULL is carried along (it can no
// longer be kept, but an AND with a NULL left side still evaluates its
// right side).
type rowFilter struct {
	kernels []selKernel
	rest    []bexpr
	raises  bool // some conjunct in rest can raise
}

// selKernel cuts sel — ordinals into rows, ascending — down to the rows
// its conjunct keeps, in place. With nul non-nil a row on which the
// conjunct is NULL stays selected and is marked there instead of dropped.
type selKernel func(ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32

// compileFilter compiles a scan or filter predicate (nil for none).
func compileFilter(e bexpr) *rowFilter {
	if e == nil {
		return nil
	}
	f := &rowFilter{}
	f.add(e)
	return f
}

// add appends e's conjuncts in written order.
func (f *rowFilter) add(e bexpr) {
	if a, ok := e.(*andExpr); ok {
		f.add(a.l)
		f.add(a.r)
		return
	}
	if !f.raises {
		if k := selKernelFor(e); k != nil {
			f.kernels = append(f.kernels, k)
			return
		}
	}
	f.rest = append(f.rest, e)
	f.raises = f.raises || truthCanRaise(e)
}

// filterScratch is the per-operator working memory of
// rowFilter.apply: the selection vector, from selPool between the first
// apply and release, and the NULL marks, which only a filter with both
// kernels and a raising conjunct needs.
type filterScratch struct {
	sel *[]int32
	nul []bool
}

var selPool bufPool[int32]

func (fs *filterScratch) release() {
	selPool.put(fs.sel)
	fs.sel = nil
}

// apply cuts rows down, in place and in order, to the rows the predicate
// keeps. The caller clears whatever it held beyond the returned length.
func (f *rowFilter) apply(ec *evalCtx, fs *filterScratch, rows []sqltypes.Row) ([]sqltypes.Row, error) {
	n := 0
	if len(f.kernels) == 0 {
		for _, row := range rows {
			keep, err := f.restKeeps(ec, row, false)
			if err != nil {
				return nil, err
			}
			if keep {
				rows[n] = row
				n++
			}
		}
		return rows[:n], nil
	}
	if fs.sel == nil {
		fs.sel = selPool.get()
	}
	sel := (*fs.sel)[:0]
	for i := range rows {
		sel = append(sel, int32(i))
	}
	*fs.sel = sel
	var nul []bool
	if f.raises {
		if cap(fs.nul) < len(rows) {
			fs.nul = make([]bool, len(rows))
		}
		nul = fs.nul[:len(rows)]
		clear(nul)
	}
	for _, k := range f.kernels {
		sel = k(ec, rows, sel, nul)
	}
	for _, ri := range sel {
		row := rows[ri]
		if len(f.rest) > 0 {
			keep, err := f.restKeeps(ec, row, nul != nil && nul[ri])
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		rows[n] = row
		n++
	}
	return rows[:n], nil
}

// restKeeps evaluates the non-kernel conjuncts on one row. null says an
// earlier conjunct was NULL on it.
func (f *rowFilter) restKeeps(ec *evalCtx, row sqltypes.Row, null bool) (bool, error) {
	ec.row = row
	for _, c := range f.rest {
		t, err := truthOf(c, ec)
		if err != nil {
			return false, err
		}
		if t == triFalse {
			return false, nil
		}
		if t == triNull {
			if !f.raises {
				return false, nil // nothing after it can raise: the row is lost either way
			}
			null = true
		}
	}
	return !null, nil
}

// canRaise reports whether evaluating e can return an error. It errs on
// the side of yes: only comparisons, BETWEEN, IN lists, LIKE, IS NULL and
// connectives over operands that cannot raise are cleared.
func canRaise(e bexpr) bool {
	switch x := e.(type) {
	case *colExpr, *litExpr, *paramExpr, *aggRefExpr:
		return false
	case *cmpExpr:
		return x.code == cmpUnknown || canRaise(x.l) || canRaise(x.r)
	case *betweenExpr:
		return canRaise(x.e) || canRaise(x.lo) || canRaise(x.hi)
	case *inListExpr:
		return canRaise(x.e) || exprsCanRaise(x.list)
	case *likeExpr:
		return canRaise(x.e) || canRaise(x.pattern)
	case *isNullExpr:
		return canRaise(x.e)
	case *andExpr:
		return truthCanRaise(x.l) || truthCanRaise(x.r)
	case *orExpr:
		return truthCanRaise(x.l) || truthCanRaise(x.r)
	case *notExpr:
		return truthCanRaise(x.e)
	}
	return true
}

func exprsCanRaise(es []bexpr) bool {
	for _, e := range es {
		if canRaise(e) {
			return true
		}
	}
	return false
}

// truthCanRaise is canRaise for an operand in boolean position, where a
// non-boolean value is itself an error.
func truthCanRaise(e bexpr) bool {
	if _, ok := e.(boolExpr); !ok {
		return true
	}
	return canRaise(e)
}

// selKernelFor returns the selection-vector kernel of a conjunct, or nil
// if it has none: `col op literal` (either way round), `col op col`,
// `col [NOT] BETWEEN literal AND literal` and `col [NOT] IN (literals)`.
// None of these can raise. A kernel holds its literals by pointer and
// reads them each time it runs, so a prepared plan re-bound to new
// arguments (Prepared.Rebind) filters by the new values.
func selKernelFor(e bexpr) selKernel {
	switch x := e.(type) {
	case *cmpExpr:
		if x.code == cmpUnknown {
			return nil
		}
		lc, lcol := x.l.(*colExpr)
		rc, rcol := x.r.(*colExpr)
		ll, llit := x.l.(*litExpr)
		rl, rlit := x.r.(*litExpr)
		switch {
		case lcol && rcol:
			return cmpColsKernel(x, lc.pos, rc.pos, cmpMask(x.code))
		case lcol && rlit:
			return cmpLitKernel(x, lc, rl, cmpMask(x.code))
		case llit && rcol:
			return cmpLitKernel(x, rc, ll, flipMask(cmpMask(x.code)))
		}
	case *betweenExpr:
		c, ok := x.e.(*colExpr)
		lo, lok := x.lo.(*litExpr)
		hi, hok := x.hi.(*litExpr)
		if ok && lok && hok {
			return betweenKernel(x, c, lo, hi)
		}
	case *inListExpr:
		c, ok := x.e.(*colExpr)
		if !ok {
			return nil
		}
		list := make([]*litExpr, len(x.list))
		for i, m := range x.list {
			l, ok := m.(*litExpr)
			if !ok {
				return nil
			}
			list[i] = l
		}
		return inListKernel(x, c.pos, list)
	}
	return nil
}

// cmpMask is the set of three-way outcomes an operator accepts, indexed
// the way the kernels compute them: bit 0 equal, bit 1 less, bit 2
// greater. NaN is neither less nor greater than anything, so it lands on
// "equal" — where compareFast and sqltypes.Compare put it.
func cmpMask(code cmpOp) uint8 {
	switch code {
	case cmpEq:
		return 0b001
	case cmpNe:
		return 0b110
	case cmpLt:
		return 0b010
	case cmpLe:
		return 0b011
	case cmpGt:
		return 0b100
	case cmpGe:
		return 0b101
	}
	return 0
}

// flipMask mirrors an operator's mask across its operands: less and
// greater trade places.
func flipMask(m uint8) uint8 { return m&1 | m&2<<1 | m&4>>1 }

// intBacked reports the kinds whose value lives in Value.I and orders by
// it.
func intBacked(k sqltypes.Kind) bool {
	const set = 1<<sqltypes.KindInt | 1<<sqltypes.KindDate | 1<<sqltypes.KindBool
	return set>>k&1 != 0
}

// slowLane decides one row the general way, through the conjunct's own
// truth (its operands are columns and literals, so it cannot raise), and
// returns 1 if the row stays selected.
func slowLane(src boolExpr, ec *evalCtx, row sqltypes.Row, ri int32, nul []bool) int {
	ec.row = row
	switch t, _ := src.truth(ec); {
	case t == triTrue:
		return 1
	case t == triNull && nul != nil:
		nul[ri] = true
		return 1
	}
	return 0
}

// outcome indexes a cmpMask: 0 equal, 1 less, 2 greater.
func outcomeInt(a, b int64) (o uint8) {
	if a < b {
		o = 1
	}
	if a > b {
		o |= 2
	}
	return o
}

func outcomeFloat(a, b float64) (o uint8) {
	if a < b {
		o = 1
	}
	if a > b {
		o |= 2
	}
	return o
}

func outcomeString(a, b string) uint8 {
	switch c := strings.Compare(a, b); {
	case c < 0:
		return 1
	case c > 0:
		return 2
	}
	return 0
}

// laneValue is the literal a `col op literal` kernel compares a column of
// declared kind col with: the literal itself, or, for a float column, an
// int literal a float64 holds exactly (|i| <= 2^53), widened — the value
// sqltypes.Compare compares a float with it as. Its kind names the typed
// lane: the rows of that kind take it, every other row the slow lane.
func laneValue(col sqltypes.Kind, lit sqltypes.Value) sqltypes.Value {
	if col == sqltypes.KindFloat && lit.K == sqltypes.KindInt && -1<<53 <= lit.I && lit.I <= 1<<53 {
		return sqltypes.NewFloat(float64(lit.I))
	}
	return lit
}

// cmpLitKernel is `col op literal`. The fast lane is a row whose column
// has the lane's kind (laneValue, decided each run from the literal as it
// is bound then); sel[n] is written unconditionally and n advanced by the
// verdict, so the loop carries no data-dependent branch.
func cmpLitKernel(src boolExpr, col *colExpr, lit *litExpr, mask uint8) selKernel {
	pos, colKind := col.pos, col.kind
	return func(ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32 {
		v := laneValue(colKind, lit.v)
		switch {
		case intBacked(v.K):
			return cmpIntLane(src, ec, rows, sel, nul, pos, v, mask)
		case v.K == sqltypes.KindFloat:
			return cmpFloatLane(src, ec, rows, sel, nul, pos, v.F, mask)
		case v.K == sqltypes.KindString:
			return cmpStringLane(src, ec, rows, sel, nul, pos, v.S, mask)
		}
		return slowRows(src, ec, rows, sel, nul)
	}
}

func cmpIntLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, lit sqltypes.Value, mask uint8) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == lit.K {
			keep = int(mask >> outcomeInt(v.I, lit.I) & 1)
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

func cmpFloatLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, lit float64, mask uint8) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == sqltypes.KindFloat {
			keep = int(mask >> outcomeFloat(v.F, lit) & 1)
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

func cmpStringLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, lit string, mask uint8) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == sqltypes.KindString {
			keep = int(mask >> outcomeString(v.S, lit) & 1)
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

// slowRows runs a kernel-shaped conjunct whose literals have no typed
// lane (a NULL literal, an interval, mixed kinds) row by row.
func slowRows(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32 {
	n := 0
	for _, ri := range sel {
		sel[n] = ri
		n += slowLane(src, ec, rows[ri], ri, nul)
	}
	return sel[:n]
}

// cmpColsKernel is `col op col`; the fast lane is two operands of one
// kind.
func cmpColsKernel(src boolExpr, lpos, rpos int, mask uint8) selKernel {
	return func(ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32 {
		n := 0
		for _, ri := range sel {
			row := rows[ri]
			a, b := &row[lpos], &row[rpos]
			keep := 0
			switch {
			case a.K != b.K:
				keep = slowLane(src, ec, row, ri, nul)
			case intBacked(a.K):
				keep = int(mask >> outcomeInt(a.I, b.I) & 1)
			case a.K == sqltypes.KindFloat:
				keep = int(mask >> outcomeFloat(a.F, b.F) & 1)
			case a.K == sqltypes.KindString:
				keep = int(mask >> outcomeString(a.S, b.S) & 1)
			default:
				keep = slowLane(src, ec, row, ri, nul)
			}
			sel[n] = ri
			n += keep
		}
		return sel[:n]
	}
}

// betweenKernel is `col [NOT] BETWEEN lo AND hi` over two literals whose
// lane values (laneValue) are of one int-backed kind or both floats.
func betweenKernel(src *betweenExpr, col *colExpr, lo, hi *litExpr) selKernel {
	pos, colKind, not := col.pos, col.kind, src.not
	return func(ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32 {
		l, h := laneValue(colKind, lo.v), laneValue(colKind, hi.v)
		switch {
		case h.K != l.K:
		case intBacked(l.K):
			return betweenIntLane(src, ec, rows, sel, nul, pos, l, h, not)
		case l.K == sqltypes.KindFloat:
			return betweenFloatLane(src, ec, rows, sel, nul, pos, l.F, h.F, not)
		}
		return slowRows(src, ec, rows, sel, nul)
	}
}

func betweenIntLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, lo, hi sqltypes.Value, not bool) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == lo.K {
			if (v.I >= lo.I && v.I <= hi.I) != not {
				keep = 1
			}
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

func betweenFloatLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, lo, hi float64, not bool) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == sqltypes.KindFloat {
			// "not less than lo, not greater than hi": a NaN anywhere is inside.
			if (!(v.F < lo) && !(v.F > hi)) != not {
				keep = 1
			}
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

// inListKernel is `col [NOT] IN (literals)` over a list of strings or of
// one int-backed kind (no NULL member: the fast lane has no NULL answer),
// as the members are bound when it runs.
func inListKernel(src *inListExpr, pos int, list []*litExpr) selKernel {
	not := src.not
	return func(ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool) []int32 {
		if len(list) == 0 {
			return slowRows(src, ec, rows, sel, nul)
		}
		kind := list[0].v.K
		for _, m := range list {
			if m.v.K != kind {
				return slowRows(src, ec, rows, sel, nul)
			}
		}
		switch {
		case kind == sqltypes.KindString:
			return inStringLane(src, ec, rows, sel, nul, pos, list, not)
		case intBacked(kind):
			return inIntLane(src, ec, rows, sel, nul, pos, kind, list, not)
		}
		return slowRows(src, ec, rows, sel, nul)
	}
}

func inStringLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, list []*litExpr, not bool) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == sqltypes.KindString {
			found := false
			for _, m := range list {
				if v.S == m.v.S {
					found = true
					break
				}
			}
			if found != not {
				keep = 1
			}
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

func inIntLane(src boolExpr, ec *evalCtx, rows []sqltypes.Row, sel []int32, nul []bool, pos int, kind sqltypes.Kind, list []*litExpr, not bool) []int32 {
	n := 0
	for _, ri := range sel {
		row := rows[ri]
		v := &row[pos]
		keep := 0
		if v.K == kind {
			found := false
			for _, m := range list {
				if v.I == m.v.I {
					found = true
					break
				}
			}
			if found != not {
				keep = 1
			}
		} else {
			keep = slowLane(src, ec, row, ri, nul)
		}
		sel[n] = ri
		n += keep
	}
	return sel[:n]
}

// --- numeric kernels ---

// numProg is the SUM/AVG/COUNT arguments of one aggregation compiled to
// column-at-a-time arithmetic: columns, numeric literals and + - * over
// them, one node per distinct sub-expression (Q1 multiplies
// l_extendedprice * (1 - l_discount) once for the two sums that use it),
// in the parse tree's evaluation order. A node's vector is all int64 or
// all float64 for the batch, by sqltypes.arith's rules: int op int stays
// int, anything with a float is float, an int operand widening exactly as
// AsFloat does. A batch holding a value the typed lanes do not cover —
// NULL, a date, a string, ints and floats mixed in one column — is not
// evaluated here at all: eval reports false before anything was folded
// and the caller runs the batch through the per-row evaluator, which is
// also where every error such an argument can raise comes from.
type numProg struct{ nodes []numNode }

type numNode struct {
	op   byte           // 'c' column, 'l' literal, or the operator
	pos  int            // 'c'
	lit  sqltypes.Value // 'l': KindInt or KindFloat
	l, r int            // operand nodes of + - *
}

// numVec is one node's value over the current batch.
type numVec struct {
	isInt bool
	hasF  bool // f is filled although isInt (a float consumer widened it)
	i     []int64
	f     []float64
}

// compile adds e to the program and returns its node, or false if e is
// not of the compiled shape (the program is left as it was).
func (p *numProg) compile(e bexpr) (int, bool) {
	mark := len(p.nodes)
	id, ok := p.node(e)
	if !ok {
		p.nodes = p.nodes[:mark]
	}
	return id, ok
}

func (p *numProg) node(e bexpr) (int, bool) {
	var nd numNode
	switch x := e.(type) {
	case *colExpr:
		nd = numNode{op: 'c', pos: x.pos}
	case *litExpr:
		if x.v.K != sqltypes.KindInt && x.v.K != sqltypes.KindFloat {
			return 0, false
		}
		nd = numNode{op: 'l', lit: x.v}
	case *binExpr:
		if x.op != '+' && x.op != '-' && x.op != '*' {
			return 0, false
		}
		l, ok := p.node(x.l)
		if !ok {
			return 0, false
		}
		r, ok := p.node(x.r)
		if !ok {
			return 0, false
		}
		nd = numNode{op: x.op, l: l, r: r}
	default:
		return 0, false
	}
	for id := range p.nodes {
		if o := &p.nodes[id]; o.op == nd.op && o.pos == nd.pos && o.l == nd.l && o.r == nd.r &&
			o.lit.K == nd.lit.K && o.lit.I == nd.lit.I && math.Float64bits(o.lit.F) == math.Float64bits(nd.lit.F) {
			return id, true
		}
	}
	p.nodes = append(p.nodes, nd)
	return len(p.nodes) - 1, true
}

// eval computes every node over rows into sc.vecs, or reports false.
func (p *numProg) eval(sc *aggScratch, rows []sqltypes.Row) bool {
	n := len(rows)
	for id := range p.nodes {
		nd, v := &p.nodes[id], &sc.vecs[id]
		v.hasF = false
		switch nd.op {
		case 'c':
			switch rows[0][nd.pos].K {
			case sqltypes.KindFloat:
				v.isInt = false
				f := v.f[:n]
				for k, row := range rows {
					x := &row[nd.pos]
					if x.K != sqltypes.KindFloat {
						return false
					}
					f[k] = x.F
				}
			case sqltypes.KindInt:
				v.isInt = true
				i := v.i[:n]
				for k, row := range rows {
					x := &row[nd.pos]
					if x.K != sqltypes.KindInt {
						return false
					}
					i[k] = x.I
				}
			default:
				return false
			}
		case 'l':
			if v.isInt = nd.lit.K == sqltypes.KindInt; v.isInt {
				i := v.i[:n]
				for k := range i {
					i[k] = nd.lit.I
				}
			} else {
				f := v.f[:n]
				for k := range f {
					f[k] = nd.lit.F
				}
			}
		default:
			l, r := &sc.vecs[nd.l], &sc.vecs[nd.r]
			if v.isInt = l.isInt && r.isInt; v.isInt {
				a, b, out := l.i[:n], r.i[:n], v.i[:n]
				switch nd.op {
				case '+':
					for k := range out {
						out[k] = a[k] + b[k]
					}
				case '-':
					for k := range out {
						out[k] = a[k] - b[k]
					}
				case '*':
					for k := range out {
						out[k] = a[k] * b[k]
					}
				}
				continue
			}
			a, b, out := l.floats(n), r.floats(n), v.f[:n]
			switch nd.op {
			case '+':
				for k := range out {
					out[k] = a[k] + b[k]
				}
			case '-':
				for k := range out {
					out[k] = a[k] - b[k]
				}
			case '*':
				for k := range out {
					out[k] = a[k] * b[k]
				}
			}
		}
	}
	return true
}

// floats returns the vector as float64s, widening an int vector once.
func (v *numVec) floats(n int) []float64 {
	f := v.f[:n]
	if v.isInt && !v.hasF {
		for k, x := range v.i[:n] {
			f[k] = float64(x)
		}
		v.hasF = true
	}
	return f
}

// --- batch aggregation ---

// aggKernels is an aggregation's batch plan, compiled at its first open.
// With plain-column group keys (or none) a batch is folded column-wise:
// the compiled arguments first (pure — a batch they do not cover falls
// back before any state changed), then one group ordinal per row, then
// each aggregate over the whole batch. Aggregates whose argument is not
// compiled (CASE, MIN/MAX, DISTINCT, division) are evaluated through eval
// row by row, in aggregate order within a row, so whatever they raise is
// what the per-row path raises. Group keys that are expressions keep the
// whole aggregation on the per-row path.
type aggKernels struct {
	batch     bool
	groupCols []int
	prog      numProg
	node      []int // per aggregate: its argument's node in prog, or -1
	perRow    []int // aggregates evaluated per row
}

func compileAgg(groups []bexpr, aggs []*aggDef) *aggKernels {
	ak := &aggKernels{}
	if ak.groupCols, ak.batch = keyCols(groups); !ak.batch {
		return ak
	}
	ak.node = make([]int, len(aggs))
	for i, def := range aggs {
		ak.node[i] = -1
		if def.arg == nil {
			continue // count(*)
		}
		if !def.distinct && (def.fn == aggSum || def.fn == aggAvg || def.fn == aggCount) {
			if id, ok := ak.prog.compile(def.arg); ok {
				ak.node[i] = id
				continue
			}
		}
		ak.perRow = append(ak.perRow, i)
	}
	return ak
}

// aggScratch is one aggregating operator's batch memory.
type aggScratch struct {
	keybuf sqltypes.Row
	gids   []int32
	vecs   []numVec
	ints   []int64
	floats []float64
}

var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

func getAggScratch(nGroups int) *aggScratch {
	auditPool(1)
	sc := aggScratchPool.Get().(*aggScratch)
	if cap(sc.keybuf) < nGroups {
		sc.keybuf = make(sqltypes.Row, nGroups)
	}
	sc.keybuf = sc.keybuf[:nGroups]
	return sc
}

func (sc *aggScratch) release() {
	clear(sc.keybuf) // pin no string while pooled
	aggScratchPool.Put(sc)
	auditPool(-1)
}

// fit sizes the scratch for a batch of n rows under ak.
func (sc *aggScratch) fit(ak *aggKernels, n int) {
	if cap(sc.gids) < n {
		sc.gids = make([]int32, n)
	}
	nodes := len(ak.prog.nodes)
	if len(sc.vecs) == nodes && (nodes == 0 || cap(sc.vecs[0].f) >= n) {
		return
	}
	if cap(sc.ints) < nodes*n {
		sc.ints = make([]int64, nodes*n)
		sc.floats = make([]float64, nodes*n)
	}
	if cap(sc.vecs) < nodes {
		sc.vecs = make([]numVec, nodes)
	}
	sc.vecs = sc.vecs[:nodes]
	w := cap(sc.ints) / max(nodes, 1)
	for id := range sc.vecs {
		sc.vecs[id] = numVec{i: sc.ints[id*w : id*w : (id+1)*w], f: sc.floats[id*w : id*w : (id+1)*w]}
	}
}

// addBatch folds a batch of input tuples into the table. The modelled
// charge is the per-row path's: opCost per aggregate per row, settled once
// for the batch, and on an error what the rows and aggregates before it
// had cost.
func (t *aggTable) addBatch(ec *evalCtx, ak *aggKernels, groups []bexpr, aggs []*aggDef, rows []sqltypes.Row, sc *aggScratch, opCost time.Duration) error {
	if len(rows) == 0 {
		return nil
	}
	if ak.batch {
		sc.fit(ak, len(rows))
	}
	if !ak.batch || !ak.prog.eval(sc, rows) {
		for _, row := range rows {
			ec.row = row
			if err := t.addRow(ec, groups, aggs, sc.keybuf, opCost); err != nil {
				return err
			}
		}
		return nil
	}
	gids := t.resolve(ak.groupCols, rows, sc, len(aggs))
	if len(ak.perRow) > 0 {
		for k, row := range rows {
			ec.row = row
			states := t.order[gids[k]].states
			for _, i := range ak.perRow {
				v, err := aggs[i].arg.eval(ec)
				if err != nil {
					ec.ex.meter.Charge(time.Duration(k*len(aggs)+i) * opCost)
					return err
				}
				states[i].add(aggs[i], v)
			}
		}
	}
	for i, def := range aggs {
		switch id := ak.node[i]; {
		case def.arg != nil && id < 0: // folded row by row above
		case def.arg == nil || def.fn == aggCount: // the typed lanes hold no NULL
			for _, g := range gids {
				t.order[g].states[i].count++
			}
		case sc.vecs[id].isInt:
			for k, x := range sc.vecs[id].i[:len(rows)] {
				st := &t.order[gids[k]].states[i]
				st.count++
				st.sumI += x
			}
		default:
			// Each group adds its values in input order, one addition per
			// statement: every float sum keeps the bits the row loop gave it.
			for k, x := range sc.vecs[id].f[:len(rows)] {
				st := &t.order[gids[k]].states[i]
				st.count++
				st.isFloat = true
				st.sumF += x
			}
		}
	}
	ec.ex.meter.Charge(time.Duration(len(rows)*len(aggs)) * opCost)
	return nil
}

// resolve returns the group ordinal of every row, starting groups as
// they first appear. A row usually belongs to the group of the row before
// it; otherwise the table looks its keys up. The shortcut only takes keys
// of the same kinds and values: across kinds "equal" is not transitive
// (an interval equals the integer of its count and every float zero), so
// there the first matching group in table order is not necessarily the
// last one used, and lookup decides.
func (t *aggTable) resolve(cols []int, rows []sqltypes.Row, sc *aggScratch, nAggs int) []int32 {
	gids := sc.gids[:len(rows)]
	last := int32(-1)
	for k, row := range rows {
		if last < 0 || !sameKeyCols(t.order[last].keys, row, cols) {
			for j, c := range cols {
				sc.keybuf[j] = row[c]
			}
			last = t.lookup(sc.keybuf, nAggs)
		}
		gids[k] = last
	}
	return gids
}

func sameKeyCols(keys, row sqltypes.Row, cols []int) bool {
	for j, c := range cols {
		if a, b := &keys[j], &row[c]; a.K != b.K || !sameKindEqual(a, b) {
			return false
		}
	}
	return true
}

// sameKindEqual is sameGroupValue for two values of one kind.
func sameKindEqual(a, b *sqltypes.Value) bool {
	switch a.K {
	case sqltypes.KindString:
		return a.S == b.S
	case sqltypes.KindFloat:
		return a.F == b.F || math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqltypes.KindNull:
		return true
	}
	return a.I == b.I
}

// sameGroupValue reports whether two values belong to one group: they
// hash alike and compare equal, NULLs together — what a shared HashRow
// bucket plus RowsEqual decides, so matching groups directly and finding
// them through the hash table cannot disagree (a NaN, which Compare calls
// equal to every number, only ever groups with its own bit pattern).
func sameGroupValue(a, b *sqltypes.Value) bool {
	if a.K == b.K {
		return sameKindEqual(a, b)
	}
	if a.K == sqltypes.KindNull || b.K == sqltypes.KindNull {
		return false
	}
	return a.Hash() == b.Hash() && sqltypes.Compare(*a, *b) == 0
}
