package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"apuama/internal/tpch"
)

// TestOracleKeyPredicateSweep: a query's own predicate on the
// partitioning key meets the SVP range predicate in every sub-query; the
// node planner intersects the two. Cluster ≡ single node for every way
// they can meet — at 1, 2 and 4 nodes, with a committed write between
// every pair of statements.
func TestOracleKeyPredicateSweep(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			opts := DefaultOptions()
			opts.DisableHedging = true // a hedge twin would blur the page counts below
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
			newKey := fmt.Sprint(tpch.Generator{SF: testSF, Seed: 1}.MaxOrderKey() + 1)
			reinsert := strings.Replace(refresh[0], "("+newKey+",", fmt.Sprintf("(%d,", gone), 1)
			if reinsert == refresh[0] {
				t.Fatalf("refresh statement %q does not start with key %s", refresh[0], newKey)
			}
			sweep := []struct {
				name, write, text string
				ordered           bool
			}{
				{"equality in the domain", fmt.Sprintf("delete from orders where o_orderkey = %d", gone),
					fmt.Sprintf("select o_orderkey, o_totalprice, o_orderdate from orders where o_orderkey = %d", present), false},
				{"equality on a deleted key", refresh[0],
					fmt.Sprintf("select o_orderkey, o_totalprice from orders where o_orderkey = %d", gone), false},
				{"equality above the domain", refresh[1],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey = %d", hi+1000), false},
				{"equality below the domain", refresh[2],
					"select o_orderkey from orders where o_orderkey = -3", false},
				{"equality on a refresh key", refresh[3],
					"select o_orderkey, o_clerk from orders where o_orderkey = " + newKey, false},
				{"lineitems of one order", fmt.Sprintf("delete from lineitem where l_orderkey = %d", edge+1),
					fmt.Sprintf("select l_orderkey, l_linenumber, l_extendedprice from lineitem where l_orderkey = %d", present), false},
				{"range inside one partition", fmt.Sprintf("delete from orders where o_orderkey = %d", lo+200),
					"select o_orderkey, o_custkey from orders where " + ranges("o_orderkey", lo+100, lo+400), false},
				{"range across a partition edge", refresh[4],
					"select l_orderkey, l_linenumber, l_quantity from lineitem where " + ranges("l_orderkey", edge-200, edge+200), false},
				{"between across a partition edge", reinsert,
					fmt.Sprintf("select o_orderkey from orders where o_orderkey between %d and %d", edge-64, edge+64), false},
				{"equality on a re-inserted key", refresh[5],
					fmt.Sprintf("select o_orderkey, o_totalprice from orders where o_orderkey = %d", gone), false},
				{"empty range", refresh[6],
					"select o_orderkey from orders where " + ranges("o_orderkey", lo+400, lo+100), false},
				{"contradicting equalities", refresh[7],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey = %d and o_orderkey = %d", present, present+1), false},
				{"OR of ranges", refresh[8],
					fmt.Sprintf("select o_orderkey from orders where o_orderkey < %d or o_orderkey > %d", lo+64, hi-64), false},
				{"range beside a non-key filter", refresh[9],
					"select l_orderkey, l_shipdate from lineitem where l_quantity < 10 and " + ranges("l_orderkey", edge-500, edge+500), false},
				{"aggregate over a range", refresh[10],
					"select count(*), sum(l_extendedprice) from lineitem where " + ranges("l_orderkey", edge-300, edge+300), true},
				{"LIMIT without ORDER BY", refresh[11],
					"select o_orderkey from orders where " + ranges("o_orderkey", edge-300, edge+300) + " limit 7", false},
				{"LIMIT with ORDER BY", fmt.Sprintf("delete from orders where o_orderkey = %d", edge),
					"select o_orderkey, o_totalprice from orders where " + ranges("o_orderkey", edge-300, edge+300) + " order by o_totalprice desc, o_orderkey limit 7", true},
			}
			for _, q := range sweep {
				if _, err := s.ctl.Exec(q.write); err != nil {
					t.Fatalf("write %q: %v", q.write, err)
				}
				want := s.single(t, q.text)
				got, err := s.ctl.Query(q.text)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if strings.Contains(q.text, "limit") && !q.ordered {
					// Which seven rows is the scan's business; how many is not.
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("%s: %d rows, want %d", q.name, len(got.Rows), len(want.Rows))
					}
					continue
				}
				assertSameResult(t, q.name, got, want, !q.ordered)
			}
			st := s.eng.Snapshot()
			if st.SVPQueries != int64(len(sweep)) || st.PassThrough != 0 {
				t.Fatalf("the sweep must run through SVP: %d SVP queries, %d pass-through, want %d and 0", st.SVPQueries, st.PassThrough, len(sweep))
			}

			// What the intersection buys: however many sub-queries a point
			// lookup fans out into, the cluster as a whole reads one page.
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
