package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// TestOracleKeyPredicateSweep: a query's own predicate on the
// partitioning key is first met with the virtual partitions by the route —
// a statement that meets at most one passes through to one node, the rest
// run SVP over exactly the partitions they meet — and then with the SVP
// range predicate in every sub-query, which the node planner intersects.
// Cluster ≡ single node for every way they can meet — at 1, 2 and 4 nodes,
// with a committed write between every pair of statements.
func TestOracleKeyPredicateSweep(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			opts := DefaultOptions()
			s := buildStack(t, n, opts)
			lo, hi, err := s.eng.catalog.KeyDomain(s.db, "orders")
			if err != nil {
				t.Fatal(err)
			}
			present, gone := lo+(hi-lo)/3, lo+(hi-lo)/3+12
			edge := lo + (hi-lo+1)/2 // a partition boundary at every tested n > 1
			ranges := func(col string, a, b int64) string {
				return fmt.Sprintf("%s >= %d and %s < %d", col, a, col, b)
			}
			// One committed write lands before every statement: deletes and
			// an insert inside the swept ranges, and refresh orders that grow
			// the key domain itself.
			refresh := tpch.NewRefreshStream(tpch.Generator{SF: testSF, Seed: 1}, 3).Statements()
			newKeyN := tpch.Generator{SF: testSF, Seed: 1}.MaxOrderKey() + 1
			newKey := fmt.Sprint(newKeyN)
			reinsert := strings.Replace(refresh[0], "("+newKey+",", fmt.Sprintf("(%d,", gone), 1)
			if reinsert == refresh[0] {
				t.Fatalf("refresh statement %q does not start with key %s", refresh[0], newKey)
			}
			// keys is the statement's own key interval, inclusive (nil: it
			// bounds no key, so it meets every partition).
			sweep := []struct {
				name, write, text string
				ordered           bool
				keys              []int64
			}{
				{"equality in the domain", fmt.Sprintf("delete from orders where o_orderkey = %d", gone),
					fmt.Sprintf("select o_orderkey, o_totalprice, o_orderdate from orders where o_orderkey = %d", present), false, []int64{present, present}},
				{"equality on a deleted key", refresh[0],
					fmt.Sprintf("select o_orderkey, o_totalprice from orders where o_orderkey = %d", gone), false, []int64{gone, gone}},
				{"equality above the domain", refresh[1],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey = %d", hi+1000), false, []int64{hi + 1000, hi + 1000}},
				{"equality below the domain", refresh[2],
					"select o_orderkey from orders where o_orderkey = -3", false, []int64{-3, -3}},
				{"equality on a refresh key", refresh[3],
					"select o_orderkey, o_clerk from orders where o_orderkey = " + newKey, false, []int64{newKeyN, newKeyN}},
				{"lineitems of one order", fmt.Sprintf("delete from lineitem where l_orderkey = %d", edge+1),
					fmt.Sprintf("select l_orderkey, l_linenumber, l_extendedprice from lineitem where l_orderkey = %d", present), false, []int64{present, present}},
				{"range inside one partition", fmt.Sprintf("delete from orders where o_orderkey = %d", lo+200),
					"select o_orderkey, o_custkey from orders where " + ranges("o_orderkey", lo+100, lo+400), false, []int64{lo + 100, lo + 399}},
				{"range across a partition edge", refresh[4],
					"select l_orderkey, l_linenumber, l_quantity from lineitem where " + ranges("l_orderkey", edge-200, edge+200), false, []int64{edge - 200, edge + 199}},
				{"between across a partition edge", reinsert,
					fmt.Sprintf("select o_orderkey from orders where o_orderkey between %d and %d", edge-64, edge+64), false, []int64{edge - 64, edge + 64}},
				{"equality on a re-inserted key", refresh[5],
					fmt.Sprintf("select o_orderkey, o_totalprice from orders where o_orderkey = %d", gone), false, []int64{gone, gone}},
				{"empty range", refresh[6],
					"select o_orderkey from orders where " + ranges("o_orderkey", lo+400, lo+100), false, []int64{lo + 400, lo + 99}},
				{"contradicting equalities", refresh[7],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey = %d and o_orderkey = %d", present, present+1), false, []int64{present + 1, present}},
				{"OR of ranges", refresh[8],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey < %d or o_orderkey > %d", lo+64, hi-64), false, nil},
				{"range beside a non-key filter", refresh[9],
					"select l_orderkey, l_shipdate from lineitem where l_quantity < 10 and " + ranges("l_orderkey", edge-500, edge+500), false, []int64{edge - 500, edge + 499}},
				{"aggregate over a range", refresh[10],
					"select count(*), sum(l_extendedprice) from lineitem where " + ranges("l_orderkey", edge-300, edge+300), true, []int64{edge - 300, edge + 299}},
				{"LIMIT without ORDER BY", refresh[11],
					"select o_orderkey from orders where " + ranges("o_orderkey", edge-300, edge+300) + " limit 7", false, []int64{edge - 300, edge + 299}},
				{"LIMIT with ORDER BY", fmt.Sprintf("delete from orders where o_orderkey = %d", edge),
					"select o_orderkey, o_totalprice from orders where " + ranges("o_orderkey", edge-300, edge+300) + " order by o_totalprice desc, o_orderkey limit 7", true, []int64{edge - 300, edge + 299}},
				{"aggregate over no partition", fmt.Sprintf("delete from orders where o_orderkey = %d", edge+2),
					"select count(*), sum(o_totalprice) from orders where o_orderkey < -5", true, []int64{lo, -6}},
				{"aggregate over two partitions", fmt.Sprintf("delete from orders where o_orderkey = %d", edge-2),
					"select count(*), sum(o_totalprice) from orders where " + ranges("o_orderkey", edge-100, edge+100), true, []int64{edge - 100, edge + 99}},
			}
			for _, q := range sweep {
				if _, err := s.ctl.Exec(q.write); err != nil {
					t.Fatalf("write %q: %v", q.write, err)
				}
				met := metPartitions(t, s, q.keys)
				before := s.eng.Snapshot()
				want := s.single(t, q.text)
				got, err := s.ctl.Query(q.text)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				checkRoute(t, q.name, before, s.eng.Snapshot(), q.keys != nil && met <= 1, met)
				if strings.Contains(q.text, "limit") && !q.ordered {
					// Which seven rows is the scan's business; how many is not.
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("%s: %d rows, want %d", q.name, len(got.Rows), len(want.Rows))
					}
					continue
				}
				assertSameResult(t, q.name, got, want, !q.ordered)
			}
			if got := s.eng.Snapshot().FallbackReasons; len(got) != 1 || got[ReasonOnePartition] == 0 {
				t.Fatalf("fallbacks %v, want only %s", got, ReasonOnePartition)
			}
			if res, err := s.ctl.Query(sweep[17].text); err != nil || len(res.Rows) != 1 || res.Rows[0][0] != sqltypes.NewInt(0) || !res.Rows[0][1].IsNull() {
				t.Fatalf("a count and a sum over no rows read %v (%v), want one row: 0, NULL", res, err)
			}

			// What the route buys: a point lookup passes through to one node,
			// so the cluster as a whole reads one page.
			for _, p := range s.eng.Procs() {
				p.Node().Pool().ResetStats()
			}
			if _, err := s.ctl.Query(sweep[0].text); err != nil {
				t.Fatal(err)
			}
			var touched int64
			for _, p := range s.eng.Procs() {
				hits, misses := p.Node().Pool().Stats()
				touched += hits + misses
			}
			if touched != 1 {
				t.Fatalf("a point lookup touched %d heap pages across the cluster, want 1", touched)
			}
		})
	}
}

// metPartitions counts the virtual partitions of the cluster's current key
// domain that the inclusive key interval keys meets (all of them for nil).
func metPartitions(t *testing.T, s *stack, keys []int64) int {
	t.Helper()
	lo, hi, err := s.eng.catalog.KeyDomain(s.db, "orders")
	if err != nil {
		t.Fatal(err)
	}
	n := s.eng.fineParts(hi - lo + 1)
	if keys == nil {
		return n
	}
	met := 0
	for i := 0; i < n; i++ {
		if v1, v2 := Partition(lo, hi, n, i); keys[0] < v2 && keys[1] >= v1 && keys[0] <= keys[1] {
			met++
		}
	}
	return met
}

// checkRoute checks the one query run between two snapshots: passed
// through under ReasonOnePartition, or run through SVP over met partitions.
func checkRoute(t *testing.T, name string, before, after Stats, passed bool, met int) {
	t.Helper()
	svp, pass := after.SVPQueries-before.SVPQueries, after.PassThrough-before.PassThrough
	routed := after.FallbackReasons[ReasonOnePartition] - before.FallbackReasons[ReasonOnePartition]
	parts := after.AVPPartitions - before.AVPPartitions
	switch {
	case passed && (svp != 0 || pass != 1 || routed != 1):
		t.Fatalf("%s meets %d partition(s): %d SVP, %d pass-through (%d %s), want 0, 1 (1)", name, met, svp, pass, routed, ReasonOnePartition)
	case !passed && (svp != 1 || pass != 0 || parts != int64(met)):
		t.Fatalf("%s meets %d partitions: %d SVP over %d partitions, %d pass-through, want 1 over %d, 0", name, met, svp, parts, pass, met)
	}
}

// TestOrderByNullsMatchSingleNode: ORDER BY puts NULLs where PostgreSQL
// does — last ascending, first descending — and the cluster agrees with
// one node. A plain fetch pushes ORDER BY … LIMIT into every sub-query, so
// the partitions' sorts pick the rows the composition's sort then orders;
// an aggregate's NULL-producing CASE is re-aggregated and sorted in the
// composition alone. Each runs through SVP on four nodes.
func TestOrderByNullsMatchSingleNode(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	const big = "case when o_totalprice > 150000 then o_totalprice end"
	const urgent = "max(case when o_orderpriority = '1-URGENT' then o_totalprice end)"
	for _, c := range []struct {
		text      string
		nullFirst bool
	}{
		{"select o_orderkey, " + big + " as big from orders order by big, o_orderkey limit 10", false},
		{"select o_orderkey, " + big + " as big from orders order by big desc, o_orderkey limit 10", true},
		{"select o_custkey, " + urgent + " as m from orders group by o_custkey order by m, o_custkey limit 10", false},
		{"select o_custkey, " + urgent + " as m from orders group by o_custkey order by m desc, o_custkey limit 10", true},
	} {
		want := s.single(t, c.text)
		got, err := s.ctl.Query(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		assertSameResult(t, c.text, got, want, false)
		if len(got.Rows) != 10 || got.Rows[0][1].IsNull() != c.nullFirst || got.Rows[9][1].IsNull() != c.nullFirst {
			t.Errorf("%s: NULLs not %s:\n%v", c.text, map[bool]string{true: "first", false: "last"}[c.nullFirst], got.Rows)
		}
	}
	if st := s.eng.Snapshot(); st.SVPQueries != 4 || st.PassThrough != 0 {
		t.Fatalf("%d SVP queries, %d pass-through; want 4 and 0", st.SVPQueries, st.PassThrough)
	}
}

// TestComposerHoldsNoHeap runs a thousand key-selective and aggregate
// queries through one cluster and checks that the live heap stays level:
// composition tables die with their query (at the parent of this test
// every query left 0.4–5.9 MB behind).
func TestComposerHoldsNoHeap(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	lo, hi, err := s.eng.catalog.KeyDomain(s.db, "orders")
	if err != nil {
		t.Fatal(err)
	}
	q6 := tpch.MustQuery(6)
	run := func(i int) {
		k := lo + int64(i*7919)%(hi-lo)
		var text string
		switch i % 3 {
		case 0:
			text = fmt.Sprintf("select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = %d", k)
		case 1:
			text = fmt.Sprintf("select l_orderkey, l_partkey, l_quantity, l_comment from lineitem where l_orderkey >= %d and l_orderkey < %d order by l_orderkey", k, k+(hi-lo)/64)
		default:
			text = q6
		}
		if _, err := s.ctl.Query(text); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's finalizers and pools released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 60; i++ { // pools, lazy set-up
		run(i)
	}
	const queries = 1000
	before := liveHeap()
	for i := 0; i < queries; i++ {
		run(i)
	}
	after := liveHeap()
	runtime.KeepAlive(s) // the cluster itself must still be part of the live heap
	if grown := (int64(after) - int64(before)) / queries; grown >= 8<<10 {
		t.Fatalf("live heap grew %d B per query over %d queries (from %d to %d), want < 8 KB", grown, queries, before, after)
	}
	if live, created := s.eng.mem.Stats(); live != 0 || created == 0 {
		t.Fatalf("memdb: %d live tables, %d created; the ordered fetch and Q6 compose through memdb and must drop what they load", live, created)
	}
}
