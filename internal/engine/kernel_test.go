package engine

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"apuama/internal/costmodel"
	"apuama/internal/sqltypes"
)

// Differential tests of the batch kernels against the reference evaluator
// of expr_ref_test.go: whatever a compiled filter, a compiled aggregation
// or the integer join table does with a batch must be what evaluating the
// bound tree row by row does — the same rows, the same values bit for bit,
// the same error text, the same modelled charge.

// typedValue draws a value for column c of a "typed" row: mostly the
// column's own kind — int, float, string, date, by c mod 4 — from a small
// domain rich in the awkward members (±0, NaN, ±Inf, equal numbers of
// different kinds), now and then anything at all.
func (g *exprGen) typedValue(c int) sqltypes.Value {
	if g.r.Intn(7) == 0 {
		return g.value()
	}
	switch c % 4 {
	case 0:
		return sqltypes.NewInt(int64(g.r.Intn(5)) - 1)
	case 1:
		return sqltypes.NewFloat([]float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 2, 2.5,
			math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(10)])
	case 2:
		return sqltypes.NewString([]string{"", "a", "ab", "MAIL", "SHIP"}[g.r.Intn(5)])
	default:
		return sqltypes.NewDate(9000 + int64(g.r.Intn(3)))
	}
}

// typedRow draws a row; with clean set no column strays from its kind.
func (g *exprGen) typedRow(clean bool) sqltypes.Row {
	row := make(sqltypes.Row, refRowWidth)
	for c := range row {
		row[c] = g.typedValue(c)
		for clean && (row[c].K != g.cleanKind(c) || row[c].F != row[c].F) {
			row[c] = g.typedValue(c)
		}
	}
	return row
}

func (g *exprGen) cleanKind(c int) sqltypes.Kind {
	return []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate}[c%4]
}

// literalFor draws a literal to compare column c with: usually of the
// column's kind, sometimes of a kind that compares with it across
// representations (an int against a float column, a date against an int),
// sometimes anything (NULL, an interval, a string against a number), now
// and then an int at or just past ±2^53 — the edge of the ints a float
// column's lane widens — or a NULL.
func (g *exprGen) literalFor(c int) *litExpr {
	switch g.r.Intn(10) {
	case 0, 1:
		return &litExpr{v: g.typedValue(c + 1 + g.r.Intn(3))}
	case 2:
		return &litExpr{v: sqltypes.NewInt(edgeInts[g.r.Intn(len(edgeInts))])}
	case 3:
		if g.r.Intn(3) == 0 {
			return &litExpr{v: sqltypes.Null()}
		}
	}
	return &litExpr{v: g.typedValue(c)}
}

// edgeInts are the ints around the largest a float64 holds exactly.
var edgeInts = []int64{1 << 53, -1 << 53, 1<<53 + 1, -1<<53 - 1, 1<<53 - 1, math.MaxInt64, 2}

// edgeFloats are floats at the same edge, which a row's float column
// holds now and then.
var edgeFloats = []float64{1 << 53, -1 << 53, 1<<53 + 2, -1<<53 - 2, 1<<53 - 1, 2}

// column draws a column reference: mostly with its declared kind (the
// clean kind of its position), now and then with none known.
func (g *exprGen) column(c int) *colExpr {
	if g.r.Intn(4) == 0 {
		return &colExpr{pos: c}
	}
	return &colExpr{pos: c, kind: g.cleanKind(c)}
}

// kernelConjunct draws a conjunct of one of the shapes selKernelFor
// compiles.
func (g *exprGen) kernelConjunct() bexpr {
	c := g.r.Intn(refRowWidth)
	col := g.column(c)
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	switch g.r.Intn(6) {
	case 0, 1:
		if g.r.Intn(3) == 0 {
			return newCmp(ops[g.r.Intn(6)], g.literalFor(c), col)
		}
		return newCmp(ops[g.r.Intn(6)], col, g.literalFor(c))
	case 2:
		other := c
		if g.r.Intn(4) != 0 {
			other = (c + 4*g.r.Intn(2)) % refRowWidth // usually a column of the same kind
		} else {
			other = g.r.Intn(refRowWidth)
		}
		return newCmp(ops[g.r.Intn(6)], col, &colExpr{pos: other})
	case 3:
		return &betweenExpr{e: col, lo: g.literalFor(c), hi: g.literalFor(c), not: g.r.Intn(3) == 0}
	default:
		in := &inListExpr{e: col, not: g.r.Intn(3) == 0}
		for n := g.r.Intn(4); n > 0; n-- {
			in.list = append(in.list, g.literalFor(c))
		}
		return in
	}
}

// refFilter is the oracle of a row filter: the AND chain evaluated by the
// reference evaluator one row after the other, stopping at the first
// error.
func refFilter(pred bexpr, ec *evalCtx, rows []sqltypes.Row) (kept []int, err error) {
	for i, row := range rows {
		ec.row = row
		v, err := refEval(pred, ec)
		if err != nil {
			return nil, err
		}
		keep, err := refFilterTrue(v)
		if err != nil {
			return nil, err
		}
		if keep {
			kept = append(kept, i)
		}
	}
	return kept, nil
}

// TestFilterKernelsMatchReference: over seeded random conjunct sets —
// kernel shapes, general predicates and predicates that raise, in every
// order — and random batches, the compiled filter keeps exactly the
// ordinals the reference keeps, or raises exactly its error.
func TestFilterKernelsMatchReference(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(23))}
	ex := &execCtx{meter: costmodel.NewMeter(costmodel.TestConfig())}
	const cases = 12000
	var errs, empty, full, withKernels, nullCarried, reordered int
	var fs filterScratch
	defer fs.release()
	for i := 0; i < cases; i++ {
		var pred bexpr
		nKernel, nGeneral := 0, 0
		for n := 1 + g.r.Intn(5); n > 0; n-- {
			var c bexpr
			if g.r.Intn(5) < 3 {
				c = g.kernelConjunct()
				nKernel++
			} else {
				c = g.operand(2)
				nGeneral++
			}
			if pred == nil {
				pred = c
			} else {
				pred = &andExpr{l: pred, r: c}
			}
		}
		clean := g.r.Intn(3) == 0
		rows := make([]sqltypes.Row, g.r.Intn(25))
		for j := range rows {
			rows[j] = g.typedRow(clean)
			if g.r.Intn(4) == 0 { // a float column at the edge of exact ints
				rows[j][1+4*g.r.Intn(2)] = sqltypes.NewFloat(edgeFloats[g.r.Intn(len(edgeFloats))])
			}
		}
		ex.params = []sqltypes.Value{g.value(), g.value()}

		want, wantErr := refFilter(pred, &evalCtx{ex: ex}, rows)

		f := compileFilter(pred)
		batch := append([]sqltypes.Row(nil), rows...)
		kept, gotErr := f.apply(&evalCtx{ex: ex}, &fs, batch)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("case %d (%d kernel, %d general conjuncts): error %v, reference %v", i, nKernel, nGeneral, gotErr, wantErr)
		}
		if len(f.kernels) > 0 {
			withKernels++
			if f.raises {
				nullCarried++
			}
			if len(f.rest) > 0 {
				reordered++
			}
		}
		if wantErr != nil {
			errs++
			continue
		}
		if len(kept) != len(want) {
			t.Fatalf("case %d: kept %d rows, reference %d", i, len(kept), len(want))
		}
		for k, ord := range want {
			if &kept[k][0] != &rows[ord][0] {
				t.Fatalf("case %d: kept[%d] is not row %d", i, k, ord)
			}
		}
		switch {
		case len(rows) > 0 && len(want) == 0:
			empty++
		case len(rows) > 0 && len(want) == len(rows):
			full++
		}
	}
	// The generator must reach every regime, not drown in one.
	if errs < cases/20 || empty < cases/20 || full < cases/100 || withKernels < cases/2 || nullCarried < cases/20 || reordered < cases/10 {
		t.Fatalf("cases too skewed over %d: %d errors, %d empty and %d full selections, %d with kernels (%d carrying NULLs, %d beside general conjuncts)",
			cases, errs, empty, full, withKernels, nullCarried, reordered)
	}
}

// slowTruth is a conjunct whose every evaluation is counted: a kernel
// built over it reaches it only through its slow lane.
type slowTruth struct{ calls int }

func (s *slowTruth) eval(ec *evalCtx) (sqltypes.Value, error) { return evalTruth(s, ec) }
func (s *slowTruth) truth(*evalCtx) (tri, error) {
	s.calls++
	return triFalse, nil
}

// TestKernelLaneFollowsTheColumnKind: a kernel picks its typed lane by
// the column's declared kind, reading the literal as it is bound when it
// runs. Q6's l_quantity < 24 — a float column, an int literal — takes the
// float lane on every float row; an int a float64 does not hold exactly,
// a column of unknown kind and a literal of another family take the slow
// lane; a literal re-bound between runs is read afresh.
func TestKernelLaneFollowsTheColumnKind(t *testing.T) {
	rows := []sqltypes.Row{{sqltypes.NewFloat(23.5)}, {sqltypes.NewFloat(24)}, {sqltypes.NewFloat(1 << 53)}, {sqltypes.Null()}}
	float := &colExpr{pos: 0, kind: sqltypes.KindFloat}
	ex := &execCtx{meter: costmodel.NewMeter(costmodel.TestConfig())}
	for _, c := range []struct {
		name      string
		col       *colExpr
		lit       sqltypes.Value
		kept, via int // rows kept and rows decided by the slow lane
	}{
		{"an int literal against a float column", float, sqltypes.NewInt(24), 1, 1},
		{"2^53 against a float column", float, sqltypes.NewInt(1 << 53), 2, 1},
		{"past 2^53", float, sqltypes.NewInt(1<<53 + 1), 0, 4},
		{"a column of unknown kind", &colExpr{pos: 0}, sqltypes.NewInt(24), 0, 4},
		{"a float literal", float, sqltypes.NewFloat(24), 1, 1},
		{"a string literal", float, sqltypes.NewString("24"), 0, 4},
	} {
		src := &slowTruth{}
		lit := &litExpr{v: c.lit}
		k := cmpLitKernel(src, c.col, lit, cmpMask(cmpLt))
		sel := k(&evalCtx{ex: ex}, rows, []int32{0, 1, 2, 3}, nil)
		if len(sel) != c.kept || src.calls != c.via {
			t.Errorf("%s: kept %d rows with %d through the slow lane, want %d and %d", c.name, len(sel), src.calls, c.kept, c.via)
		}
	}
	lit := &litExpr{v: sqltypes.NewInt(24)}
	k := cmpLitKernel(&slowTruth{}, float, lit, cmpMask(cmpLt))
	lit.v = sqltypes.NewInt(25)
	if sel := k(&evalCtx{ex: ex}, rows, []int32{0, 1, 2, 3}, nil); len(sel) != 2 {
		t.Errorf("a re-bound literal: kept %d rows, want 2", len(sel))
	}
}

// TestFilterOrderContract pins the evaluation-order rules one by one on a
// two-column table (a int, b int).
func TestFilterOrderContract(t *testing.T) {
	a, b := &colExpr{pos: 0}, &colExpr{pos: 1}
	lit := func(i int64) bexpr { return &litExpr{v: sqltypes.NewInt(i)} }
	div := newCmp(">", &binExpr{op: '/', l: lit(1), r: b}, lit(0)) // raises on b = 0
	isOne := newCmp("=", a, lit(1))
	row := func(a, b sqltypes.Value) sqltypes.Row { return sqltypes.Row{a, b} }
	n := sqltypes.NewInt
	cases := []struct {
		name    string
		pred    bexpr
		rows    []sqltypes.Row
		kernels int
		kept    int
		err     string
	}{
		{"kernel FALSE shields a later raising conjunct", &andExpr{l: isOne, r: div},
			[]sqltypes.Row{row(n(2), n(0)), row(n(1), n(1))}, 1, 1, ""},
		{"kernel NULL does not shield it", &andExpr{l: isOne, r: div},
			[]sqltypes.Row{row(sqltypes.Null(), n(0))}, 1, 0, "division by zero"},
		{"kernel NULL, later conjunct fine: row dropped", &andExpr{l: isOne, r: div},
			[]sqltypes.Row{row(sqltypes.Null(), n(1)), row(n(1), n(1))}, 1, 1, ""},
		{"a kernel does not move ahead of a raising conjunct", &andExpr{l: div, r: isOne},
			[]sqltypes.Row{row(n(2), n(0))}, 0, 0, "division by zero"},
		{"a kernel moves ahead of LIKE", &andExpr{l: &likeExpr{e: a, pattern: &litExpr{v: sqltypes.NewString("%")}}, r: isOne},
			[]sqltypes.Row{row(n(1), n(0)), row(n(2), n(0))}, 1, 1, ""},
		{"errors surface in row order, not conjunct order", &andExpr{l: &andExpr{l: isOne, r: div}, r: newCmp("=", &negExpr{e: &litExpr{v: sqltypes.NewString("x")}}, a)},
			[]sqltypes.Row{row(n(1), n(1)), row(n(1), n(0))}, 1, 0, "unary minus not defined for VARCHAR"},
	}
	ex := &execCtx{meter: costmodel.NewMeter(costmodel.TestConfig())}
	for _, c := range cases {
		f := compileFilter(c.pred)
		if len(f.kernels) != c.kernels {
			t.Errorf("%s: %d kernels, want %d", c.name, len(f.kernels), c.kernels)
		}
		var fs filterScratch
		kept, err := f.apply(&evalCtx{ex: ex}, &fs, append([]sqltypes.Row(nil), c.rows...))
		fs.release()
		_, wantErr := refFilter(c.pred, &evalCtx{ex: ex}, c.rows)
		if errText(err) != errText(wantErr) || (c.err == "") != (err == nil) || (err != nil && err.Error() != c.err) {
			t.Errorf("%s: error %v, reference %v, want %q", c.name, err, wantErr, c.err)
		}
		if err == nil && len(kept) != c.kept {
			t.Errorf("%s: kept %d rows, want %d", c.name, len(kept), c.kept)
		}
	}
}

// --- numeric kernels and the batch fold ---

// numArg draws an aggregate argument: columns, numeric literals and
// + - * mostly (what numProg compiles), now and then a division or any
// scalar (what it leaves to the per-row path).
func (g *exprGen) numArg(depth int) bexpr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return &litExpr{v: sqltypes.NewInt(int64(g.r.Intn(4)))}
		case 1:
			return &litExpr{v: sqltypes.NewFloat([]float64{0.5, 1, math.Copysign(0, -1), 1e308}[g.r.Intn(4)])}
		default:
			if g.r.Intn(20) == 0 {
				return &colExpr{pos: g.r.Intn(refRowWidth)} // maybe a string or date column
			}
			return &colExpr{pos: []int{0, 1, 4, 5}[g.r.Intn(4)]}
		}
	}
	if g.r.Intn(30) == 0 {
		return g.scalar(2)
	}
	op := "+-*"[g.r.Intn(3)]
	if g.r.Intn(30) == 0 {
		op = '/'
	}
	return &binExpr{op: op, l: g.numArg(depth - 1), r: g.numArg(depth - 1)}
}

// refAggregate is the oracle of an aggregation: group keys and arguments
// through the reference evaluator, groups found the way the row-at-a-time
// table found them (one HashRow bucket, RowsEqual), the unchanged
// aggState.add as accumulator. It returns the output rows, the first error
// and the modelled charge the row loop makes.
func refAggregate(ec *evalCtx, groups []bexpr, aggs []*aggDef, rows []sqltypes.Row, opCost time.Duration) ([]sqltypes.Row, time.Duration, error) {
	type grp struct {
		keys   sqltypes.Row
		states []aggState
	}
	buckets := map[uint64][]*grp{}
	var order []*grp
	var charged time.Duration
	for _, row := range rows {
		ec.row = row
		keys := make(sqltypes.Row, len(groups))
		for i, ge := range groups {
			v, err := refEval(ge, ec)
			if err != nil {
				return nil, charged, err
			}
			keys[i] = v
		}
		h := sqltypes.HashRow(keys)
		var cur *grp
		for _, c := range buckets[h] {
			if sqltypes.RowsEqual(c.keys, keys) {
				cur = c
				break
			}
		}
		if cur == nil {
			cur = &grp{keys: keys, states: make([]aggState, len(aggs))}
			buckets[h] = append(buckets[h], cur)
			order = append(order, cur)
		}
		for i, def := range aggs {
			var v sqltypes.Value
			if def.arg != nil {
				var err error
				if v, err = refEval(def.arg, ec); err != nil {
					return nil, charged + time.Duration(i)*opCost, err
				}
			}
			cur.states[i].add(def, v)
		}
		charged += time.Duration(len(aggs)) * opCost
	}
	var out []sqltypes.Row
	if len(groups) == 0 && len(order) == 0 {
		order = []*grp{{keys: sqltypes.Row{}, states: make([]aggState, len(aggs))}}
	}
	for _, c := range order {
		r := append(sqltypes.Row(nil), c.keys...)
		for i, def := range aggs {
			r = append(r, c.states[i].result(def))
		}
		out = append(out, r)
	}
	return out, charged, nil
}

// TestNumericKernelsMatchReference: over seeded random aggregations and
// batches, (1) whenever the compiled arguments accept a batch, every
// value they computed is the reference evaluator's, kind and IEEE bits;
// (2) folding the batches into a reused aggregate table gives the
// reference aggregation's rows bit for bit, or its error, at its modelled
// charge.
func TestNumericKernelsMatchReference(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(29))}
	meter := costmodel.NewMeter(costmodel.TestConfig())
	opCost := meter.Config().CPUOperator
	ex := &execCtx{meter: meter}
	fns := []aggFn{aggSum, aggSum, aggAvg, aggCount, aggMin, aggMax}
	const cases = 12000
	var errs, fast, slow, floatVecs, intVecs, manyGroups, shared int
	// One aggregate output serves every case, emptied between them as a
	// re-opened aggregate empties it: groups, keys, states and rows are cut
	// from the chunks the cases before left behind.
	var res aggOut
	defer res.close()
	for i := 0; i < cases; i++ {
		var groups []bexpr
		for n := g.r.Intn(3); n > 0; n-- {
			if g.r.Intn(10) == 0 {
				groups = append(groups, g.scalar(1))
			} else {
				groups = append(groups, &colExpr{pos: g.r.Intn(refRowWidth)})
			}
		}
		var aggs []*aggDef
		var common bexpr
		for n := 1 + g.r.Intn(4); n > 0; n-- {
			def := &aggDef{fn: fns[g.r.Intn(len(fns))], distinct: g.r.Intn(12) == 0}
			switch {
			case def.fn == aggCount && g.r.Intn(2) == 0: // count(*)
				def.distinct = false
			case common != nil && g.r.Intn(2) == 0: // an argument built on an earlier one
				def.arg = &binExpr{op: '*', l: common, r: g.numArg(1)}
			default:
				def.arg = g.numArg(2)
				common = def.arg
			}
			aggs = append(aggs, def)
		}
		// Three regimes: every column of its own kind; the same with NULLs
		// punched in (off the typed lanes, but nothing raises); anything.
		regime := g.r.Intn(3)
		wide := g.r.Intn(8) == 0 // enough distinct keys to leave direct matching
		var batches [][]sqltypes.Row
		var all []sqltypes.Row
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			rows := make([]sqltypes.Row, g.r.Intn(21))
			for j := range rows {
				rows[j] = g.typedRow(regime < 2)
				for c := range rows[j] {
					if regime == 1 && g.r.Intn(12) == 0 {
						rows[j][c] = sqltypes.Null()
					}
				}
				if wide {
					rows[j][0] = sqltypes.NewInt(int64(g.r.Intn(40)))
				}
			}
			batches = append(batches, rows)
			all = append(all, rows...)
		}
		ex.params = []sqltypes.Value{g.value(), g.value()}

		want, wantCharge, wantErr := refAggregate(&evalCtx{ex: ex}, groups, aggs, all, opCost)

		ak := compileAgg(groups, aggs)
		if len(ak.prog.nodes) > 0 {
			compiled := 0
			for _, id := range ak.node {
				if id >= 0 {
					compiled++
				}
			}
			if compiled > 1 && len(ak.prog.nodes) < 2*compiled {
				shared++
			}
		}
		sc := getAggScratch(len(groups))
		res.begin()
		table := &res.table
		before := meter.Virtual()
		var gotErr error
		for _, rows := range batches {
			if ak.batch && len(rows) > 0 {
				sc.fit(ak, len(rows))
				if ak.prog.eval(sc, rows) {
					fast++
					for id, nd := range ak.prog.nodes {
						vec := &sc.vecs[id]
						for k, row := range rows {
							ref, err := refEval(numNodeExpr(&ak.prog, id), &evalCtx{ex: ex, row: row})
							got := sqltypes.NewFloat(0)
							if vec.isInt {
								got = sqltypes.NewInt(vec.i[:len(rows)][k])
								intVecs++
							} else {
								got = sqltypes.NewFloat(vec.f[:len(rows)][k])
								floatVecs++
							}
							if err != nil || !sameBits(got, ref) {
								t.Fatalf("case %d node %d (%c) row %v: kernel %v (%s), reference %v (%s), %v", i, id, nd.op, row, got, got.K, ref, ref.K, err)
							}
						}
					}
				} else {
					slow++
				}
			}
			if gotErr = table.addBatch(&evalCtx{ex: ex}, ak, groups, aggs, rows, sc, opCost); gotErr != nil {
				break
			}
		}
		sc.release()
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("case %d: error %v, reference %v", i, gotErr, wantErr)
		}
		if got := meter.Virtual() - before; got != wantCharge {
			t.Fatalf("case %d: charged %v, the row loop charges %v (error: %v)", i, got, wantCharge, wantErr)
		}
		if wantErr != nil {
			errs++
			continue
		}
		res.render(len(groups), aggs)
		got := res.rows
		if len(got) != len(want) {
			t.Fatalf("case %d: %d groups, reference %d", i, len(got), len(want))
		}
		if len(got) > directGroups {
			manyGroups++
		}
		for r := range want {
			for c := range want[r] {
				if !sameBits(got[r][c], want[r][c]) {
					t.Fatalf("case %d group %d col %d: %v (%s, %x), reference %v (%s, %x)", i, r, c,
						got[r][c], got[r][c].K, math.Float64bits(got[r][c].F), want[r][c], want[r][c].K, math.Float64bits(want[r][c].F))
				}
			}
		}
	}
	if errs < cases/50 || errs > cases/2 || fast < cases/5 || slow < cases/5 || floatVecs < cases || intVecs < cases || manyGroups < cases/50 || shared < cases/100 {
		t.Fatalf("cases too skewed over %d: %d errors, %d batches on the typed lanes and %d off them, %d float and %d int values checked, %d aggregations past direct matching, %d sharing a sub-expression",
			cases, errs, fast, slow, floatVecs, intVecs, manyGroups, shared)
	}
}

// sameBits is sameValue except that any NaN equals any NaN: when two NaNs
// meet in an addition the processor keeps the payload of whichever
// operand the register allocator put first, so which NaN a sum ends as is
// the compiler's choice in the reference loop and in the kernel alike.
func sameBits(a, b sqltypes.Value) bool {
	return sameValue(a, b) || a.K == sqltypes.KindFloat && b.K == sqltypes.KindFloat && a.F != a.F && b.F != b.F
}

// numNodeExpr rebuilds the bound expression a program node stands for.
func numNodeExpr(p *numProg, id int) bexpr {
	switch nd := &p.nodes[id]; nd.op {
	case 'c':
		return &colExpr{pos: nd.pos}
	case 'l':
		return &litExpr{v: nd.lit}
	default:
		return &binExpr{op: nd.op, l: numNodeExpr(p, nd.l), r: numNodeExpr(p, nd.r)}
	}
}

// TestSameGroupValueIsHashAndCompare: matching groups directly must agree
// with finding them through the hash table, i.e. with "same Hash and
// Compare says equal" (NULLs together), for every pair of values.
func TestSameGroupValueIsHashAndCompare(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null(),
		sqltypes.NewInt(-3), sqltypes.NewInt(0), sqltypes.NewInt(2), sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 1),
		sqltypes.NewFloat(-3), sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(2), sqltypes.NewFloat(2.5),
		sqltypes.NewFloat(1 << 53), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000002)),
		sqltypes.NewString(""), sqltypes.NewString("2"), sqltypes.NewString("a"),
		sqltypes.NewDate(0), sqltypes.NewDate(2), sqltypes.NewBool(false), sqltypes.NewBool(true),
		sqltypes.NewInterval(0, "day"), sqltypes.NewInterval(2, "day"), sqltypes.NewInterval(2, "year"),
	}
	for i := range vals {
		for j := range vals {
			a, b := vals[i], vals[j]
			want := a.IsNull() && b.IsNull() || !a.IsNull() && !b.IsNull() && a.Hash() == b.Hash() && sqltypes.Compare(a, b) == 0
			if got := sameGroupValue(&a, &b); got != want {
				t.Errorf("sameGroupValue(%s %v, %s %v) = %v, hash-and-compare says %v", a.K, a, b.K, b, got, want)
			}
		}
	}
}

// --- the integer join table ---

// joinRows runs a hash join of probe against build on the given key
// columns, every column of both sides selected.
func joinRows(t *testing.T, probe, build []sqltypes.Row, keys []int, width int) ([]sqltypes.Row, *hashJoinOp) {
	t.Helper()
	j := &hashJoinOp{probe: &rowsOp{rows: probe}, build: &rowsOp{rows: build}}
	for _, k := range keys {
		j.probeKeys = append(j.probeKeys, &colExpr{pos: k})
		j.buildKeys = append(j.buildKeys, &colExpr{pos: k})
	}
	for c := 0; c < width; c++ {
		j.probeSel = append(j.probeSel, c)
		j.buildSel = append(j.buildSel, c)
	}
	ex := &execCtx{meter: costmodel.NewMeter(costmodel.TestConfig()), batchCap: 5}
	if err := j.open(ex); err != nil {
		t.Fatal(err)
	}
	usedInts := j.ints != nil
	var out []sqltypes.Row
	b := sqltypes.NewBatch(5)
	for {
		b.Reset()
		if err := j.next(ex, b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		out = append(out, b.Rows...)
	}
	j.close()
	if !usedInts {
		return out, nil
	}
	return out, j
}

// TestIntKeyJoinMatchesGenericTable: on build sides whose keys are all
// exact integers (and NULLs) the join takes the integer table; adding one
// build row with a string key no probe row carries forces the generic
// table over otherwise the same input. Both must produce the same tuples
// in the same order — probe keys of every kind (ints, integral and
// fractional floats, ±0, NaN, dates, strings, NULL, intervals), duplicate
// build keys (match order is build order), one key column or two.
func TestIntKeyJoinMatchesGenericTable(t *testing.T) {
	g := &exprGen{r: rand.New(rand.NewSource(31))}
	const width = 3
	buildKey := func() sqltypes.Value {
		switch g.r.Intn(8) {
		case 0:
			return sqltypes.Null()
		case 1:
			return sqltypes.NewDate(int64(g.r.Intn(4)))
		case 2:
			return sqltypes.NewBool(g.r.Intn(2) == 0)
		default:
			return sqltypes.NewInt(int64(g.r.Intn(6)) - 1)
		}
	}
	probeKey := func() sqltypes.Value {
		switch g.r.Intn(6) {
		case 0:
			return g.value()
		case 1:
			return sqltypes.NewFloat([]float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 1 << 53, math.Inf(1)}[g.r.Intn(9)])
		case 2:
			return sqltypes.NewInterval(int64(g.r.Intn(2)), "day")
		default:
			return buildKey()
		}
	}
	intRuns, matched := 0, 0
	for i := 0; i < 600; i++ {
		keys := []int{0}
		if i%3 == 0 {
			keys = []int{0, 1}
		}
		build := make([]sqltypes.Row, g.r.Intn(12))
		for r := range build {
			build[r] = sqltypes.Row{buildKey(), buildKey(), sqltypes.NewInt(int64(r))}
		}
		probe := make([]sqltypes.Row, g.r.Intn(12))
		for r := range probe {
			probe[r] = sqltypes.Row{probeKey(), probeKey(), sqltypes.NewInt(int64(100 + r))}
		}
		got, j := joinRows(t, probe, build, keys, width)
		if j == nil {
			t.Fatalf("case %d: an all-integer build side did not take the integer table", i)
		}
		intRuns++
		marker := sqltypes.Row{sqltypes.NewString("generic"), sqltypes.NewString("generic"), sqltypes.NewInt(-1)}
		want, j := joinRows(t, probe, append(append([]sqltypes.Row(nil), build...), marker), keys, width)
		if j != nil {
			t.Fatalf("case %d: a string build key still took the integer table", i)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d (%d keys): integer table joined %d tuples, generic table %d\nbuild %v\nprobe %v", i, len(keys), len(got), len(want), build, probe)
		}
		matched += len(got)
		for r := range want {
			for c := range want[r] {
				if !sameValue(got[r][c], want[r][c]) {
					t.Fatalf("case %d tuple %d: %v, generic table %v", i, r, got[r], want[r])
				}
			}
		}
	}
	if matched < 1000 {
		t.Fatalf("only %d tuples joined over %d cases", matched, intRuns)
	}

	// Keys a float64 cannot hold exactly stay on the generic table.
	big := []sqltypes.Row{{sqltypes.NewInt(1 << 53), sqltypes.Null(), sqltypes.NewInt(0)}}
	if _, j := joinRows(t, big, big, []int{0}, width); j != nil {
		t.Fatal("a build key of 2^53 took the integer table")
	}
}

// --- the index scan's own range, and -0 ---

// indexScanUnder returns the heap index scan at the bottom of a plan.
func indexScanUnder(t *testing.T, o op) *indexScanOp {
	t.Helper()
	for {
		switch v := o.(type) {
		case *projectOp:
			o = v.child
		case *aggOp:
			o = v.child
		case *sortOp:
			o = v.child
		case *limitOp:
			o = v.child
		case *colScanOp:
			o = v.fallback
		case *indexScanOp:
			return v
		default:
			t.Fatalf("no index scan under the plan: %T", o)
		}
	}
}

// countConjuncts counts the leaves of an AND chain.
func countConjuncts(e bexpr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *andExpr:
		return countConjuncts(x.l) + countConjuncts(x.r)
	}
	return 1
}

// TestIndexScanDoesNotReproveItsRange: conjuncts the chosen index's
// literal bounds guarantee leave the heap index scan's filter; everything
// the bounds do not prove stays — a parameter, a bound of the other
// comparison family, an upper bound with nothing below it (the range then
// starts at the NULL keys), NaN, other columns. The columnar wrapper keeps
// the full filter. Results are the heap scan's either way.
func TestIndexScanDoesNotReproveItsRange(t *testing.T) {
	nd := boundsDB(t, 600)
	nd.Set("enable_seqscan", sqltypes.NewBool(false))
	cases := []struct {
		where string
		left  int // conjuncts left in the index scan's filter
	}{
		{"ok >= 100 and ok < 200", 0},
		{"ok = 150", 0},
		{"ok = 150 and ok >= 100 and ok < 200", 0},
		{"ok between 100 and 200 and ok > 120", 0},
		{"200 > ok and 100 <= ok and total > 10", 1},
		{"ok >= 100 and ok < 200 and ok >= 99.5", 0},
		{"ok < 200", 1},
		{"ok <= 200 and total > 10", 2},
		{"ok >= 100 and ok >= 'a'", 1},
		{"ok >= 100 and ok < 200 and ok < 'zz'", 1},
		{"ok >= 100 and ok < 200 and (ok + 0) > 5", 1},
		{"ok >= 100 and ok < 200 and ok <> 150", 1},
		{"ok >= 100 and ok < 200 and ok not between 120 and 130", 1},
	}
	for _, c := range cases {
		text := "select ok, total from orders where " + c.where
		root, _, err := nd.planSelect(mustSelect(t, text))
		if err != nil {
			t.Fatalf("%q: %v", c.where, err)
		}
		if got := countConjuncts(indexScanUnder(t, root).filter); got != c.left {
			t.Errorf("%q: %d conjuncts left in the index scan's filter, want %d", c.where, got, c.left)
		}
		sameRows(t, c.where, q(t, nd, text), seqReference(t, nd, text, "ok"))
		nd.Set("enable_seqscan", sqltypes.NewBool(false))
	}

	// A correlation parameter on a side proves nothing about the literals
	// beside it: both stay.
	sub := "select ok from orders o where exists (select 1 from items i where i.ok >= o.ok and i.ok >= 5 and i.ok < 9)"
	root, _, err := nd.planSelect(mustSelect(t, sub))
	if err != nil {
		t.Fatal(err)
	}
	ex := root.(*projectOp).child.(*filterOp).cond.(*existsExpr)
	if got := countConjuncts(indexScanUnder(t, ex.sub.root).filter); got != 2 {
		t.Errorf("parameter beside a literal bound: %d conjuncts left, want 2 (i.ok >= o.ok, i.ok >= 5)", got)
	}

	// An upper bound alone reaches the NULL keys; the filter must still
	// reject them.
	if _, err := nd.Exec("create table nk (k bigint, v bigint)"); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Exec("create index nk_k on nk (k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Exec("insert into nk values (null, 1), (1, 2), (2, 3), (null, 4), (9, 5)"); err != nil {
		t.Fatal(err)
	}
	if res := q(t, nd, "select count(*) from nk where k < 5"); res.Rows[0][0].I != 2 {
		t.Errorf("k < 5 over NULL keys counted %v rows, want 2", res.Rows[0][0])
	}
	if res := q(t, nd, "select count(*) from nk where k >= 1 and k < 5"); res.Rows[0][0].I != 2 {
		t.Errorf("k >= 1 and k < 5 counted %v rows, want 2", res.Rows[0][0])
	}

	// The columnar replacement reads its zone maps from the full filter.
	nd.DB().SetColumnar(true)
	defer nd.DB().SetColumnar(false)
	root, _, err = nd.planSelect(mustSelect(t, "select ok from orders where ok >= 100 and ok < 200"))
	if err != nil {
		t.Fatal(err)
	}
	col, ok := root.(*projectOp).child.(*colScanOp)
	if !ok {
		t.Fatalf("columnar plan is a %T", root.(*projectOp).child)
	}
	if countConjuncts(col.filter) != 2 || countConjuncts(col.fallback.(*indexScanOp).filter) != 0 {
		t.Errorf("columnar scan keeps %d conjuncts (want 2), its heap fallback %d (want 0)",
			countConjuncts(col.filter), countConjuncts(col.fallback.(*indexScanOp).filter))
	}
}

// TestNegativeZeroGroupsAndJoins: 0.0, -0.0 and 0.0 * -5 compare equal, so
// they are one group and join each other — they used to hash apart (two
// groups, 5 of 9 self-join pairs) while `a = 0.0` already counted all
// three.
func TestNegativeZeroGroupsAndJoins(t *testing.T) {
	_, nd := newTestDB(t, 1, 1)
	for _, s := range []string{
		"create table z (id bigint, a double, primary key (id))",
		"insert into z values (1, 0.0), (2, -0.0), (3, 0.0 * -5)",
		"create table zi (i bigint, primary key (i))",
		"insert into zi values (0), (1)",
	} {
		if _, err := nd.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	rel, _ := nd.DB().Relation("z")
	negs := 0
	for _, p := range rel.PageSnapshot() {
		for s := int32(0); s < int32(p.Count()); s++ {
			if math.Signbit(p.Row(s)[1].F) {
				negs++
			}
		}
	}
	if negs != 2 {
		t.Fatalf("fixture holds %d negative zeros, want 2", negs)
	}
	for text, want := range map[string]int64{
		"select count(*) from z where a = 0.0":                  3,
		"select count(*) from z x, z y where x.a = y.a":         9,
		"select count(*) from z, zi where a = i":                3,
		"select count(distinct a) from z":                       1,
		"select count(*) from z where a in (select a from z y)": 3,
	} {
		if res := q(t, nd, text); res.Rows[0][0].I != want {
			t.Errorf("%s = %v, want %d", text, res.Rows[0][0], want)
		}
	}
	if res := q(t, nd, "select a, count(*) from z group by a"); len(res.Rows) != 1 || res.Rows[0][1].I != 3 {
		t.Errorf("group by a: %v, want one group of 3", res.Rows)
	}
}
