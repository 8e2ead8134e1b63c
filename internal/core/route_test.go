package core

import (
	"fmt"
	"math"
	"testing"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// TestKeyPartsRoute pins the route as a pure function: which of the four
// virtual partitions of the key domain [1, 6000] — [1, 1501), [1501, 3001),
// [3001, 4501), [4501, 6001) — a statement's own key bounds meet, and
// whether it has any. A statement without bounds meets all four.
func TestKeyPartsRoute(t *testing.T) {
	const lo, hi, n = 1, 6000, 4
	all := [2]int{0, n}
	cases := []struct {
		name, text string
		parts      [2]int // [first, last)
		bounded    bool
	}{
		{"=", "o_orderkey = 1600", [2]int{1, 2}, true},
		{"= reversed", "1600 = o_orderkey", [2]int{1, 2}, true},
		{"<", "o_orderkey < 1501", [2]int{0, 1}, true},
		{"< reversed", "1501 > o_orderkey", [2]int{0, 1}, true},
		{"<=", "o_orderkey <= 1501", [2]int{0, 2}, true},
		{"<= reversed", "1501 >= o_orderkey", [2]int{0, 2}, true},
		{">", "o_orderkey > 4500", [2]int{3, 4}, true},
		{"> reversed", "4500 < o_orderkey", [2]int{3, 4}, true},
		{">=", "o_orderkey >= 4500", [2]int{2, 4}, true},
		{">= reversed", "4500 <= o_orderkey", [2]int{2, 4}, true},
		{"between", "o_orderkey between 1400 and 3100", [2]int{0, 3}, true},
		{"between inside one partition", "o_orderkey between 3001 and 4500", [2]int{2, 3}, true},
		{"two bounds", "o_orderkey >= 1600 and o_custkey < 9 and o_orderkey < 3002", [2]int{1, 3}, true},
		{"table-qualified", "orders.o_orderkey = 10", [2]int{0, 1}, true},
		{"contradicting bounds", "o_orderkey > 3000 and o_orderkey < 2000", [2]int{0, 0}, true},
		{"contradicting equalities", "o_orderkey = 5 and o_orderkey = 6", [2]int{0, 0}, true},
		{"first key", "o_orderkey = 1", [2]int{0, 1}, true},
		{"last key of the first partition", "o_orderkey = 1500", [2]int{0, 1}, true},
		{"first key of the second partition", "o_orderkey = 1501", [2]int{1, 2}, true},
		{"last key", "o_orderkey = 6000", [2]int{3, 4}, true},
		{"above hi", "o_orderkey = 6001", [2]int{0, 0}, true},
		{"range above hi", "o_orderkey > 6000", [2]int{0, 0}, true},
		{"range across hi", "o_orderkey >= 5999", [2]int{3, 4}, true},
		{"below lo", "o_orderkey = 0", [2]int{0, 0}, true},
		{"range below lo", "o_orderkey < 1", [2]int{0, 0}, true},
		{"range across lo", "o_orderkey <= 1", [2]int{0, 1}, true},
		{"OR bounded by a conjunct", "(o_orderkey < 100 or o_orderkey > 5900) and o_orderkey < 3000", [2]int{0, 2}, true},

		// Not bounds: none of these prunes a partition.
		{"OR of ranges", "o_orderkey < 100 or o_orderkey > 5900", all, false},
		{"NOT BETWEEN", "o_orderkey not between 100 and 200", all, false},
		{"NOT", "not (o_orderkey = 5)", all, false},
		{"<>", "o_orderkey <> 5", all, false},
		{"float literal", "o_orderkey < 10.5", all, false},
		{"placeholder", "o_orderkey = $1", all, false},
		{"non-VPA column", "o_custkey = 5", all, false},
		{"key of a table not in FROM", "l_orderkey = 5", all, false},
		{"key compared with a column", "o_orderkey = o_custkey", all, false},
		{"EXISTS sub-query", "exists (select l_orderkey from lineitem where l_orderkey = o_orderkey and l_orderkey = 5)", all, false},
		{"no WHERE", "", all, false},
	}
	for _, c := range cases {
		text := "select o_orderkey from orders"
		if c.text != "" {
			text += " where " + c.text
		}
		checkKeyParts(t, c.name, mustSel(t, text), lo, hi, n, c.parts, c.bounded)
	}

	joins := []struct {
		name, text string
		parts      [2]int
	}{
		{"join bounded on orders", "select o_orderkey, l_linenumber from orders, lineitem where o_orderkey = l_orderkey and o_orderkey = 4600", [2]int{3, 4}},
		{"join bounded on lineitem", "select o_orderkey, l_linenumber from orders, lineitem where o_orderkey = l_orderkey and l_orderkey between 10 and 20", [2]int{0, 1}},
		{"join bounded on both", "select o.o_orderkey from orders o, lineitem l where o.o_orderkey = l.l_orderkey and o.o_orderkey >= 100 and l.l_orderkey < 1600", [2]int{0, 2}},
		{"alias-qualified", "select o.o_orderkey from orders o where o.o_orderkey = 3001", [2]int{2, 3}},
		{"another alias's key", "select o.o_orderkey from orders o, customer c where c.o_orderkey = 3001", [2]int{0, n}},
	}
	for _, c := range joins {
		checkKeyParts(t, c.name, mustSel(t, c.text), lo, hi, n, c.parts, c.parts != [2]int{0, n})
	}

	// The ends of int64: no bound wraps round.
	extremes := []struct {
		op    string
		v     int64
		parts [2]int
	}{
		{"<", math.MinInt64, [2]int{0, 0}},
		{"<=", math.MinInt64, [2]int{0, 0}},
		{">", math.MinInt64, all},
		{">=", math.MinInt64, all},
		{"<", math.MaxInt64, all},
		{"<=", math.MaxInt64, all},
		{">", math.MaxInt64, [2]int{0, 0}},
		{">=", math.MaxInt64, [2]int{0, 0}},
	}
	for _, c := range extremes {
		sel := mustSel(t, "select o_orderkey from orders where o_orderkey "+c.op+" 0")
		sel.Where.(*sql.CompareExpr).R = &sql.Literal{Val: sqltypes.NewInt(c.v)}
		checkKeyParts(t, fmt.Sprintf("o_orderkey %s %d", c.op, c.v), sel, lo, hi, n, c.parts, true)
		sel.Where = &sql.CompareExpr{Op: flipCompare(c.op), L: &sql.Literal{Val: sqltypes.NewInt(c.v)}, R: &sql.ColumnRef{Name: "o_orderkey"}}
		checkKeyParts(t, fmt.Sprintf("%d %s o_orderkey", c.v, flipCompare(c.op)), sel, lo, hi, n, c.parts, true)
	}
}

func checkKeyParts(t *testing.T, name string, sel *sql.SelectStmt, lo, hi int64, n int, want [2]int, wantBounded bool) {
	t.Helper()
	first, last, bounded := keyParts(sel, TPCHCatalog(), lo, hi, n)
	if [2]int{first, last} != want || bounded != wantBounded {
		t.Errorf("%s: partitions [%d, %d), bounded %v; want [%d, %d), %v", name, first, last, bounded, want[0], want[1], wantBounded)
	}
}

// TestPartOfMatchesPartition: every key of a domain lands in the partition
// whose [v1, v2) holds it, for even and uneven splits alike.
func TestPartOfMatchesPartition(t *testing.T) {
	for _, d := range []struct {
		lo, hi int64
		n      int
	}{{1, 6000, 4}, {1, 10, 4}, {-7, 7, 3}, {5, 5, 1}, {1, 3, 4}, {100, 99 + 2048*14, 14}} {
		for k := d.lo; k <= d.hi; k++ {
			i := partOf(d.lo, d.hi, d.n, k)
			if v1, v2 := Partition(d.lo, d.hi, d.n, i); k < v1 || k >= v2 {
				t.Fatalf("[%d, %d] in %d: key %d in partition %d = [%d, %d)", d.lo, d.hi, d.n, k, i, v1, v2)
			}
		}
	}
}
