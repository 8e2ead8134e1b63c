package core

import (
	"math"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// keyRoute is the route for a query SVP may split: the key domain [lo, hi]
// of its VP table cut into n virtual partitions, of which its own key
// bounds meet [first, last).
type keyRoute struct {
	lo, hi      int64
	n           int
	first, last int
}

// route is the controller's first stage. Before the result cache,
// admission and the MQO batching window see sel, and before any node is
// touched, it meets sel's own bounds on the partitioning key with the
// virtual partitions. A read that meets at most one partition (a point
// lookup, a narrow range, a range outside the key domain) gains nothing
// from intra-query parallelism: route returns errOnePartition and the
// caller passes the read through to the replica the controller picked, as
// C-JDBC runs it — no barrier, no claim loop, no gather. Zero partitions
// pass through as well rather than answer an empty result: a scalar
// aggregate over no rows is still one row (count(*) is 0). A read that
// meets two or more is split into those only, with the [v1, v2) bounds
// they have in the full split, so partial-cache keys and MQO flights stay
// the same. A query without key bounds meets every partition, however few.
func (e *Engine) route(sel *sql.SelectStmt) (keyRoute, error) {
	table := ""
	for _, tr := range sel.From {
		if _, ok := e.catalog.Lookup(tr.Name); ok {
			table = tr.Name
			break
		}
	}
	if table == "" {
		return keyRoute{}, errNoVPTable
	}
	lo, hi, err := e.catalog.KeyDomain(e.db, table)
	if err != nil {
		return keyRoute{}, notEligible(ReasonKeyDomain, "%v", err)
	}
	rt := keyRoute{lo: lo, hi: hi, n: e.fineParts(hi - lo + 1)}
	var bounded bool
	rt.first, rt.last, bounded = keyParts(sel, e.catalog, lo, hi, rt.n)
	if bounded && rt.last-rt.first <= 1 {
		return keyRoute{}, errOnePartition
	}
	return rt, nil
}

// keyParts is the route as a pure function of the statement, the catalog,
// the key domain [lo, hi] and its number n of virtual partitions: the
// partitions [first, last) that sel's own key bounds meet (first == last
// when they meet none), and whether it has any. A bound is a top-level AND
// conjunct comparing a VP reference's VPA with an integer literal: =, <,
// <=, >, >= in either operand order, or BETWEEN. Every sub-query holds each
// VP reference to its partition's range, so a bound on any one of them
// bounds the query. What is not a bound — OR, NOT, sub-queries, other
// literals, placeholders — never prunes a partition.
func keyParts(sel *sql.SelectStmt, cat *Catalog, lo, hi int64, n int) (first, last int, bounded bool) {
	kb := keyBounds{from: sel.From, cat: cat, lo: lo, hi: hi}
	kb.meet(sel.Where)
	if kb.empty || kb.lo > kb.hi {
		return 0, 0, true
	}
	return partOf(lo, hi, n, kb.lo), partOf(lo, hi, n, kb.hi) + 1, kb.bounded
}

// keyBounds narrows the inclusive key interval [lo, hi] by each bound it
// meets (bounded once one has); empty marks a bound no key satisfies
// (< MinInt64, > MaxInt64).
type keyBounds struct {
	from           []sql.TableRef
	cat            *Catalog
	lo, hi         int64
	bounded, empty bool
}

// meet narrows the interval by e's top-level conjuncts.
func (kb *keyBounds) meet(e sql.Expr) {
	switch x := e.(type) {
	case *sql.AndExpr:
		kb.meet(x.L)
		kb.meet(x.R)
	case *sql.CompareExpr:
		if v, ok := intLiteral(x.R); ok && kb.isKey(x.L) {
			kb.compare(x.Op, v)
		} else if v, ok := intLiteral(x.L); ok && kb.isKey(x.R) {
			kb.compare(flipCompare(x.Op), v)
		}
	case *sql.BetweenExpr:
		v1, ok1 := intLiteral(x.Lo)
		v2, ok2 := intLiteral(x.Hi)
		if !x.Not && ok1 && ok2 && kb.isKey(x.E) {
			kb.compare(">=", v1)
			kb.compare("<=", v2)
		}
	}
}

// compare narrows the interval by `key op v`.
func (kb *keyBounds) compare(op string, v int64) {
	switch op {
	case "=":
		kb.lo, kb.hi = max(kb.lo, v), min(kb.hi, v)
	case "<":
		if v == math.MinInt64 {
			kb.empty = true
		} else {
			kb.hi = min(kb.hi, v-1)
		}
	case "<=":
		kb.hi = min(kb.hi, v)
	case ">":
		if v == math.MaxInt64 {
			kb.empty = true
		} else {
			kb.lo = max(kb.lo, v+1)
		}
	case ">=":
		kb.lo = max(kb.lo, v)
	default: // <>
		return
	}
	kb.bounded = true
}

// isKey reports whether e is the VPA of a VP reference in the main FROM:
// qualified by that reference's name, or unqualified.
func (kb *keyBounds) isKey(e sql.Expr) bool {
	c, ok := e.(*sql.ColumnRef)
	if !ok {
		return false
	}
	for _, tr := range kb.from {
		if vt, ok := kb.cat.Lookup(tr.Name); ok && vt.VPA == c.Name && (c.Table == "" || c.Table == tr.RefName()) {
			return true
		}
	}
	return false
}

// flipCompare turns `v op key` into `key op' v`.
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

// intLiteral returns e's value when it is an integer literal.
func intLiteral(e sql.Expr) (int64, bool) {
	if l, ok := e.(*sql.Literal); ok && l.Val.K == sqltypes.KindInt {
		return l.Val.I, true
	}
	return 0, false
}

// partOf returns the index of the partition of [lo, hi] into n that holds
// key k, lo <= k <= hi.
func partOf(lo, hi int64, n int, k int64) int {
	i, j := 0, n-1
	for i < j {
		m := (i + j) / 2
		if _, v2 := Partition(lo, hi, n, m); v2 > k {
			j = m
		} else {
			i = m + 1
		}
	}
	return i
}
