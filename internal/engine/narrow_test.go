package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// TestJoinNarrowingKeepsResults plans every join-bearing shape twice —
// hash-join tuples narrowed to the needed columns (the default) and
// carrying everything (QueryStmtWideJoins) — and wants identical rows in
// identical order, bit for bit. A column the
// needed-set walk missed would not get this far: binding fails with "not
// available at this point in the plan".
func TestJoinNarrowingKeepsResults(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	nd, err := tpch.Generator{SF: 0.002, Seed: 1}.Load(db)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"star join": `select * from orders, customer where o_custkey = c_custkey and o_orderkey < 200 order by o_orderkey`,
		// No column is read above the joins; only their own keys travel.
		"count over join": `select count(*) from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey`,
		// l1.l_commitdate, l1.l_suppkey and o_orderdate are read only inside
		// the sub-selects, the last one unqualified.
		"outer columns only in sub-selects": `select s_name, count(*) as numwait
			from supplier, lineitem l1, orders
			where s_suppkey = l1.l_suppkey and o_orderkey = l1.l_orderkey and o_orderstatus = 'F'
				and exists (select 1 from lineitem l2 where l2.l_orderkey = l1.l_orderkey and l2.l_suppkey <> l1.l_suppkey)
				and not exists (select 1 from lineitem l3 where l3.l_orderkey = l1.l_orderkey and l3.l_receiptdate > l1.l_commitdate)
				and exists (select 1 from lineitem l4 where l4.l_orderkey = l1.l_orderkey and l4.l_shipdate > o_orderdate)
			group by s_name order by numwait desc, s_name`,
		// A residual over two tables that is not an equi-join.
		"non-equi residual": `select o_orderkey, l_linenumber from orders, lineitem
			where l_orderkey = o_orderkey and l_shipdate > o_orderdate + 100 and o_orderkey < 400 order by o_orderkey, l_linenumber`,
	}
	for _, qn := range []int{1, 3, 4, 5, 6, 12, 14, 21} {
		queries[fmt.Sprintf("Q%d", qn)] = tpch.MustQuery(qn)
	}
	wm := nd.Watermark()
	joins := 0
	for name, text := range queries {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, err := nd.Explain(sel)
		if err != nil {
			t.Fatalf("%s: explain: %v", name, err)
		}
		joins += strings.Count(tpchFingerprint(plan), "Hash Join")
		narrow, err := nd.QueryStmtAt(sel, wm, engine.QueryOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wide, err := nd.QueryStmtWideJoins(sel, wm)
		if err != nil {
			t.Fatalf("%s, wide joins: %v", name, err)
		}
		if len(narrow.Rows) == 0 {
			t.Errorf("%s: empty result proves nothing", name)
		}
		if got, want := tpchFingerprint(narrow), tpchFingerprint(wide); got != want {
			t.Errorf("%s: narrowed join tuples changed the result:\n%s\nwide:\n%s", name, got, want)
		}
	}
	if joins < 8 {
		t.Fatalf("only %d hash joins planned across the shapes", joins)
	}

	// EXPLAIN says what survived: Q3 reads 8 columns above its scans.
	q3, err := sql.ParseSelect(tpch.MustQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := nd.Explain(q3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Hash Join (1 key[s], 8 of 21 cols)", "Hash Join (1 key[s], 5 of 17 cols)"} {
		if text := tpchFingerprint(plan); !strings.Contains(text, want) {
			t.Errorf("missing %q in plan:\n%s", want, text)
		}
	}
}
