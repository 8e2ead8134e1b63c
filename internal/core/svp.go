package core

import (
	"errors"
	"fmt"
	"strings"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// ErrNotEligible marks queries SVP cannot rewrite; the caller falls back
// to plain inter-query processing (the paper: "in those cases,
// intra-query is not explored").
var ErrNotEligible = errors.New("query is not eligible for virtual partitioning")

// Fallback reason classes: the stable, low-cardinality keys under which
// Stats.FallbackReasons buckets ineligibility. Keying by class instead
// of the formatted error string keeps the map bounded on long chaos
// runs no matter how many distinct queries fall back.
const (
	ReasonNoVPTable       = "no-vp-table"
	ReasonSelectStar      = "select-star"
	ReasonDistinctAgg     = "distinct-aggregate"
	ReasonNonDecomposable = "non-decomposable-aggregate"
	ReasonSubquery        = "uncorrelated-subquery"
	ReasonOrderBy         = "order-by-not-in-select"
	ReasonCompose         = "non-composable-expression"
	ReasonKeyDomain       = "key-domain"
	ReasonOnePartition    = "one-partition"
	ReasonOther           = "other"
)

// reasonClasses lists every fallback class, each counted under its own
// pre-resolved handle (engineStats.fallbacks).
var reasonClasses = []string{
	ReasonNoVPTable, ReasonSelectStar, ReasonDistinctAgg, ReasonNonDecomposable,
	ReasonSubquery, ReasonOrderBy, ReasonCompose, ReasonKeyDomain,
	ReasonOnePartition, ReasonOther,
}

// NotEligibleError carries the ineligibility class alongside the
// human-readable detail. It unwraps to ErrNotEligible.
type NotEligibleError struct {
	Class string
	msg   string
}

func (e *NotEligibleError) Error() string { return e.msg }

// Unwrap lets errors.Is(err, ErrNotEligible) keep working.
func (e *NotEligibleError) Unwrap() error { return ErrNotEligible }

// notEligible builds a classed ineligibility error.
func notEligible(class, format string, args ...any) error {
	return &NotEligibleError{
		Class: class,
		msg:   ErrNotEligible.Error() + ": " + fmt.Sprintf(format, args...),
	}
}

// The ineligibility errors an OLTP read meets: preallocated, so a pass-through
// formats nothing.
var (
	errNoVPTable    error = &NotEligibleError{Class: ReasonNoVPTable, msg: ErrNotEligible.Error() + ": no virtually partitioned table in FROM"}
	errOnePartition error = &NotEligibleError{Class: ReasonOnePartition, msg: ErrNotEligible.Error() + ": the key bounds meet at most one virtual partition"}
)

// FallbackClass maps a fallback error to its stats bucket.
func FallbackClass(err error) string {
	if ne, ok := err.(*NotEligibleError); ok {
		return ne.Class
	}
	var ne *NotEligibleError
	if errors.As(err, &ne) {
		return ne.Class
	}
	return ReasonOther
}

// Rewrite is the product of planning a query for SVP: the partial
// sub-query template (range predicate added per node), the composition
// query run over the union of partial results, and bookkeeping.
type Rewrite struct {
	// Partial is the sub-query template: original FROM/WHERE with
	// decomposed aggregates projected under stable names (g0.., a0..),
	// ORDER BY / LIMIT / HAVING stripped (they apply globally).
	Partial *sql.SelectStmt
	// PartialCols names the partial projection, in order.
	PartialCols []string
	// VPRefs lists the main-FROM table references that receive the
	// per-node range predicate, with their VPA column.
	VPRefs []VPRef
	// Compose is the composition query; its FROM references the
	// placeholder ComposeFrom, substituted with the temp-table name at
	// execution time.
	Compose *sql.SelectStmt
	// Table is the VP table whose key domain drives partitioning.
	Table string
	// PushedLimit is the LIMIT bound pushed down into each partial
	// sub-query (plain rewrites only; 0 = none). The partial keeps the
	// original ORDER BY and DISTINCT, so the union of per-partition
	// first-k sets always contains the global first-k; composition still
	// applies the global LIMIT. With no global ordering the gather may
	// also stop early once the committed partition prefix holds k rows.
	PushedLimit int64
}

// VPRef is one table reference to constrain with a range predicate.
type VPRef struct {
	Ref string // alias or table name used in the query
	VPA string
}

// ComposeFrom is the placeholder FROM-name in Rewrite.Compose.
const ComposeFrom = "svp_partials"

// PlanSVP decides eligibility and builds the rewrite, implementing the
// paper's §2-3 transformation rules:
//
//   - the query must reference a virtually partitioned table in its main
//     FROM clause;
//   - aggregates must be decomposable (sum, count, min, max; avg is
//     rewritten as sum+count); DISTINCT aggregates are not;
//   - sub-queries referencing VP tables must be correlated on the
//     partitioning key (derived partitioning), otherwise the query
//     "cannot be transformed";
//   - ORDER BY, LIMIT and HAVING move to the composition step.
func PlanSVP(stmt *sql.SelectStmt, cat *Catalog) (*Rewrite, error) {
	// Find the VP table references in the main FROM.
	var refs []VPRef
	var vpTable string
	for _, tr := range stmt.From {
		if vt, ok := cat.Lookup(tr.Name); ok {
			refs = append(refs, VPRef{Ref: tr.RefName(), VPA: vt.VPA})
			if vpTable == "" {
				vpTable = tr.Name
			}
		}
	}
	if len(refs) == 0 {
		return nil, errNoVPTable
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, notEligible(ReasonSelectStar, "SELECT * is not decomposed")
		}
	}
	// Sub-queries referencing VP tables must be key-correlated.
	for _, sub := range sql.Subqueries(stmt) {
		if err := checkSubquery(sub, cat); err != nil {
			return nil, err
		}
	}

	aggs := collectAggregates(stmt)
	for _, a := range aggs {
		if a.Distinct {
			return nil, notEligible(ReasonDistinctAgg, "%s(distinct) is not decomposable", a.Name)
		}
		switch strings.ToLower(a.Name) {
		case "sum", "count", "avg", "min", "max":
		default:
			return nil, notEligible(ReasonNonDecomposable, "aggregate %s is not decomposable", a.Name)
		}
	}
	if len(aggs) == 0 && len(stmt.GroupBy) == 0 {
		return buildPlainRewrite(stmt, refs, vpTable)
	}
	return buildAggRewrite(stmt, refs, vpTable, aggs)
}

// checkSubquery enforces the derived-partitioning rule: a sub-query that
// touches a VP table must contain a top-level equality between that
// table's VPA and a partitioning key of the outer query (the paper's Q4
// and Q21 shape). Dimension-only sub-queries pass unconditionally.
func checkSubquery(sub *sql.SelectStmt, cat *Catalog) error {
	subRefs := map[string]string{} // ref name -> VPA, for VP tables in the sub's FROM
	for _, tr := range sub.From {
		if vt, ok := cat.Lookup(tr.Name); ok {
			subRefs[tr.RefName()] = vt.VPA
		}
	}
	if len(subRefs) == 0 {
		return nil
	}
	for _, conj := range splitAnd(sub.Where) {
		cmp, ok := conj.(*sql.CompareExpr)
		if !ok || cmp.Op != "=" {
			continue
		}
		l, lok := cmp.L.(*sql.ColumnRef)
		r, rok := cmp.R.(*sql.ColumnRef)
		if !lok || !rok {
			continue
		}
		if isVPAOfSub(l, subRefs) && isOuterKey(r, subRefs, cat) {
			return nil
		}
		if isVPAOfSub(r, subRefs) && isOuterKey(l, subRefs, cat) {
			return nil
		}
	}
	return notEligible(ReasonSubquery, "sub-query references a partitioned table without key correlation")
}

func isVPAOfSub(c *sql.ColumnRef, subRefs map[string]string) bool {
	if c.Table != "" {
		return subRefs[c.Table] == c.Name
	}
	for _, vpa := range subRefs {
		if vpa == c.Name {
			return true
		}
	}
	return false
}

// isOuterKey reports whether the column is a partitioning key reference
// that does not belong to the sub-query's own FROM list.
func isOuterKey(c *sql.ColumnRef, subRefs map[string]string, cat *Catalog) bool {
	if !cat.IsKeyAttr(c.Name) {
		return false
	}
	if c.Table == "" {
		// Unqualified: outer if no sub-FROM VP table owns this name.
		for _, vpa := range subRefs {
			if vpa == c.Name {
				return false
			}
		}
		return true
	}
	_, local := subRefs[c.Table]
	return !local
}

func splitAnd(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*sql.AndExpr); ok {
		return append(splitAnd(a.L), splitAnd(a.R)...)
	}
	return []sql.Expr{e}
}

// collectAggregates gathers the distinct aggregate calls (by rendered
// SQL) from the select list and HAVING, without descending into
// sub-queries.
func collectAggregates(stmt *sql.SelectStmt) []*sql.FuncExpr {
	seen := map[string]bool{}
	var out []*sql.FuncExpr
	visit := func(e sql.Expr) {
		sql.WalkExpr(e, func(x sql.Expr) bool {
			switch x := x.(type) {
			case *sql.ExistsExpr, *sql.SubqueryExpr:
				return false
			case *sql.InExpr:
				return x.Sub == nil
			case *sql.FuncExpr:
				if x.IsAggregate() {
					if !seen[x.SQL()] {
						seen[x.SQL()] = true
						out = append(out, x)
					}
					return false
				}
			}
			return true
		})
	}
	for _, it := range stmt.Items {
		if !it.Star {
			visit(it.Expr)
		}
	}
	if stmt.Having != nil {
		visit(stmt.Having)
	}
	return out
}

// itemName mirrors the engine's output-naming rule.
func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.SQL()
}

// buildPlainRewrite handles queries without aggregation: partials carry
// the projected rows, composition unions them and applies DISTINCT /
// ORDER BY / LIMIT globally.
func buildPlainRewrite(stmt *sql.SelectStmt, refs []VPRef, vpTable string) (*Rewrite, error) {
	partial := sql.CloneSelect(stmt)
	partial.OrderBy = nil
	partial.Limit = nil
	cols := make([]string, len(partial.Items))
	outNames := make([]string, len(partial.Items))
	for i := range partial.Items {
		outNames[i] = itemName(stmt.Items[i])
		cols[i] = fmt.Sprintf("p%d", i)
		partial.Items[i].Alias = cols[i]
	}
	var pushed int64
	if stmt.Limit != nil && *stmt.Limit >= 0 {
		// LIMIT pushdown: each partition needs at most the first k rows
		// of its own range (under the original ordering), because the
		// global first-k is contained in the union of per-partition
		// first-k sets. The partial's ORDER BY keys are rewritten to the
		// pN aliases; if a key cannot be mapped the whole query is
		// ineligible anyway (the compose-side rewriteOrderBy below fails
		// with the same reason), so pushdown is simply skipped here.
		if po, err := rewriteOrderBy(stmt, cols); err == nil {
			partial.OrderBy = po
			partial.Limit = cloneLimit(stmt.Limit)
			pushed = *stmt.Limit
		}
	}
	compose := &sql.SelectStmt{
		Distinct: stmt.Distinct,
		From:     []sql.TableRef{{Name: ComposeFrom}},
		Limit:    cloneLimit(stmt.Limit),
	}
	for i, c := range cols {
		compose.Items = append(compose.Items, sql.SelectItem{
			Expr:  &sql.ColumnRef{Name: c},
			Alias: outNames[i],
		})
	}
	var err error
	compose.OrderBy, err = rewriteOrderBy(stmt, outNames)
	if err != nil {
		return nil, err
	}
	return &Rewrite{
		Partial: partial, PartialCols: cols, VPRefs: refs, Compose: compose,
		Table: vpTable, PushedLimit: pushed,
	}, nil
}

// buildAggRewrite decomposes aggregates: the partial query groups as the
// original does but projects raw decomposed aggregates (avg → sum +
// count); the composition re-aggregates the partials and evaluates the
// original output expressions over them.
func buildAggRewrite(stmt *sql.SelectStmt, refs []VPRef, vpTable string, aggs []*sql.FuncExpr) (*Rewrite, error) {
	partial := sql.CloneSelect(stmt)
	partial.OrderBy = nil
	partial.Limit = nil
	partial.Having = nil
	partial.Items = nil
	partial.Distinct = false

	var cols []string
	groupMap := map[string]sql.Expr{} // original group expr SQL -> compose-side column ref
	for i, g := range stmt.GroupBy {
		name := fmt.Sprintf("g%d", i)
		partial.Items = append(partial.Items, sql.SelectItem{Expr: sql.CloneExpr(g), Alias: name})
		cols = append(cols, name)
		groupMap[g.SQL()] = &sql.ColumnRef{Name: name}
	}

	aggMap := map[string]sql.Expr{} // original aggregate SQL -> compose-side expression
	addPartialAgg := func(f *sql.FuncExpr) string {
		name := fmt.Sprintf("a%d", len(cols)-len(stmt.GroupBy))
		partial.Items = append(partial.Items, sql.SelectItem{Expr: f, Alias: name})
		cols = append(cols, name)
		return name
	}
	for _, a := range aggs {
		key := a.SQL()
		fn := strings.ToLower(a.Name)
		switch fn {
		case "sum", "count":
			name := addPartialAgg(&sql.FuncExpr{Name: fn, Args: cloneArgs(a.Args), Star: a.Star})
			// Global sum-of-sums / sum-of-counts.
			aggMap[key] = &sql.FuncExpr{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: name}}}
		case "min", "max":
			name := addPartialAgg(&sql.FuncExpr{Name: fn, Args: cloneArgs(a.Args)})
			aggMap[key] = &sql.FuncExpr{Name: fn, Args: []sql.Expr{&sql.ColumnRef{Name: name}}}
		case "avg":
			// The paper's example: avg() must be rewritten as sum()
			// followed by count() "to address a global average".
			sumName := addPartialAgg(&sql.FuncExpr{Name: "sum", Args: cloneArgs(a.Args)})
			cntName := addPartialAgg(&sql.FuncExpr{Name: "count", Args: cloneArgs(a.Args)})
			aggMap[key] = &sql.BinaryExpr{
				Op: '/',
				L:  &sql.FuncExpr{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: sumName}}},
				R:  &sql.FuncExpr{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: cntName}}},
			}
		}
	}

	compose := &sql.SelectStmt{
		Distinct: stmt.Distinct,
		From:     []sql.TableRef{{Name: ComposeFrom}},
		Limit:    cloneLimit(stmt.Limit),
	}
	outNames := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		outNames[i] = itemName(it)
		e, err := rewriteComposeExpr(it.Expr, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		compose.Items = append(compose.Items, sql.SelectItem{Expr: e, Alias: outNames[i]})
	}
	for i := range stmt.GroupBy {
		compose.GroupBy = append(compose.GroupBy, &sql.ColumnRef{Name: fmt.Sprintf("g%d", i)})
	}
	if stmt.Having != nil {
		h, err := rewriteComposeExpr(stmt.Having, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		compose.Having = h
	}
	var err error
	compose.OrderBy, err = rewriteOrderBy(stmt, outNames)
	if err != nil {
		return nil, err
	}
	return &Rewrite{
		Partial: partial, PartialCols: cols, VPRefs: refs, Compose: compose,
		Table: vpTable,
	}, nil
}

func cloneArgs(args []sql.Expr) []sql.Expr {
	out := make([]sql.Expr, len(args))
	for i, a := range args {
		out[i] = sql.CloneExpr(a)
	}
	return out
}

func cloneLimit(l *int64) *int64 {
	if l == nil {
		return nil
	}
	n := *l
	return &n
}

// rewriteComposeExpr maps an original output expression into composition
// space: group expressions become gN columns, aggregates become their
// global re-aggregation, literals pass through, and operators recurse.
func rewriteComposeExpr(e sql.Expr, groupMap, aggMap map[string]sql.Expr) (sql.Expr, error) {
	if r, ok := groupMap[e.SQL()]; ok {
		return sql.CloneExpr(r), nil
	}
	if f, ok := e.(*sql.FuncExpr); ok && f.IsAggregate() {
		r, ok := aggMap[f.SQL()]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s was not decomposed", f.SQL())
		}
		return sql.CloneExpr(r), nil
	}
	switch e := e.(type) {
	case *sql.Literal:
		return sql.CloneExpr(e), nil
	case *sql.BinaryExpr:
		l, err := rewriteComposeExpr(e.L, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := rewriteComposeExpr(e.R, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *sql.NegExpr:
		x, err := rewriteComposeExpr(e.E, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.NegExpr{E: x}, nil
	case *sql.CompareExpr:
		l, err := rewriteComposeExpr(e.L, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := rewriteComposeExpr(e.R, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.CompareExpr{Op: e.Op, L: l, R: r}, nil
	case *sql.AndExpr:
		l, err := rewriteComposeExpr(e.L, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := rewriteComposeExpr(e.R, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.AndExpr{L: l, R: r}, nil
	case *sql.OrExpr:
		l, err := rewriteComposeExpr(e.L, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := rewriteComposeExpr(e.R, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.OrExpr{L: l, R: r}, nil
	case *sql.NotExpr:
		x, err := rewriteComposeExpr(e.E, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.NotExpr{E: x}, nil
	case *sql.ExtractExpr:
		x, err := rewriteComposeExpr(e.E, groupMap, aggMap)
		if err != nil {
			return nil, err
		}
		return &sql.ExtractExpr{Field: e.Field, E: x}, nil
	case *sql.CaseExpr:
		c := &sql.CaseExpr{}
		for _, w := range e.Whens {
			cond, err := rewriteComposeExpr(w.Cond, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			then, err := rewriteComposeExpr(w.Then, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, sql.When{Cond: cond, Then: then})
		}
		if e.Else != nil {
			els, err := rewriteComposeExpr(e.Else, groupMap, aggMap)
			if err != nil {
				return nil, err
			}
			c.Else = els
		}
		return c, nil
	default:
		return nil, notEligible(ReasonCompose, "%T above aggregation cannot be composed", e)
	}
}

// rewriteOrderBy maps ORDER BY keys to composition output columns by
// alias or expression-text match against the original select list.
func rewriteOrderBy(stmt *sql.SelectStmt, outNames []string) ([]sql.OrderItem, error) {
	var out []sql.OrderItem
	for _, oi := range stmt.OrderBy {
		pos := -1
		if cr, ok := oi.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
			for i, n := range outNames {
				if n == cr.Name {
					pos = i
					break
				}
			}
		}
		if pos < 0 {
			want := oi.Expr.SQL()
			for i, it := range stmt.Items {
				if !it.Star && it.Expr.SQL() == want {
					pos = i
					break
				}
			}
		}
		if pos < 0 {
			return nil, notEligible(ReasonOrderBy, "ORDER BY key %q is not in the select list", oi.Expr.SQL())
		}
		out = append(out, sql.OrderItem{Expr: &sql.ColumnRef{Name: outNames[pos]}, Desc: oi.Desc})
	}
	return out, nil
}

// SubQuery instantiates sub-query i of n: a clone of the partial template
// with the range predicate `ref.vpa >= v1 and ref.vpa < v2` added for
// every VP table reference (the paper's formula (2)).
func (rw *Rewrite) SubQuery(i, n int, lo, hi int64) *sql.SelectStmt {
	v1, v2 := Partition(lo, hi, n, i)
	return rw.withRange(func(int) (sql.Expr, sql.Expr) { return intLit(v1), intLit(v2) })
}

// template is every sub-query at once: the partial template — whose own
// predicates read arguments $1 … $n — with the range predicates over the
// placeholders that follow them, reference k's bounds being $n+2k+1 and
// $n+2k+2. Planned with the partial's arguments followed by
// appendRangeArgs' for [v1, v2), it is SubQuery's statement for [v1, v2).
func (rw *Rewrite) template(n int) *sql.SelectStmt {
	return rw.withRange(func(k int) (sql.Expr, sql.Expr) {
		return &sql.Placeholder{N: n + 2*k + 1}, &sql.Placeholder{N: n + 2*k + 2}
	})
}

// appendRangeArgs appends the range arguments of partition [v1, v2) to
// args, the partial's own arguments.
func (rw *Rewrite) appendRangeArgs(args []sqltypes.Value, v1, v2 int64) []sqltypes.Value {
	for range rw.VPRefs {
		args = append(args, sqltypes.NewInt(v1), sqltypes.NewInt(v2))
	}
	return args
}

// withRange clones the partial template and ANDs `ref.vpa >= lo and
// ref.vpa < hi` onto its WHERE for each VP table reference k, taking the
// bounds from bounds(k).
func (rw *Rewrite) withRange(bounds func(k int) (lo, hi sql.Expr)) *sql.SelectStmt {
	sub := sql.CloneSelect(rw.Partial)
	for k, ref := range rw.VPRefs {
		lo, hi := bounds(k)
		col := &sql.ColumnRef{Table: ref.Ref, Name: ref.VPA}
		rangePred := &sql.AndExpr{
			L: &sql.CompareExpr{Op: ">=", L: col, R: lo},
			R: &sql.CompareExpr{Op: "<", L: sql.CloneExpr(col), R: hi},
		}
		if sub.Where == nil {
			sub.Where = rangePred
		} else {
			sub.Where = &sql.AndExpr{L: sub.Where, R: rangePred}
		}
	}
	return sub
}

func intLit(v int64) *sql.Literal {
	return &sql.Literal{Val: sqltypes.NewInt(v)}
}
