package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// reuseShapes are the consumers around a join that decide where its tuples
// live: a join under a filter, a join as a join's build input, a join
// under ORDER BY … LIMIT, `exists (select * from a, b …)` whose projection
// the binder drops (the join becomes the sub-plan's root), a cached
// uncorrelated IN over a join, a plain join whose rows QueryStmtAt hands
// back, a join beside a nested loop (the planner puts only a disconnected
// table's scan on a nested loop's inner side, so a join is the outer side,
// with per-batch tuples, or the nested loop is a join's build side), and a
// join under ORDER BY without LIMIT (the sort keeps the projection's rows,
// so the join below them cuts per-batch tuples). Then the consumers around
// an aggregate, which cuts its rows from its own arena under a projection,
// directly or through HAVING, and heap rows elsewhere: HAVING over a
// grouping with groups spread over the whole scan, the composition's shape — re-aggregation
// under ORDER BY … LIMIT — count(distinct …) beside MIN and MAX, a
// correlated scalar aggregate re-opened per outer row, and EXISTS over
// HAVING, whose sub-plan root is the HAVING filter over the aggregate.
var reuseShapes = []string{
	`select o_orderkey, l_linenumber, l_extendedprice from orders, lineitem
		where o_orderkey = l_orderkey and o_totalprice > l_extendedprice * 20`,
	`select n_name, c_name from region, nation, customer
		where r_regionkey = n_regionkey and n_nationkey = c_nationkey and r_name = 'ASIA'`,
	`select c_name, o_totalprice from customer, orders
		where c_custkey = o_custkey order by o_totalprice desc, c_name limit 7`,
	`select count(*) from orders where exists (
		select * from lineitem, part
		where l_orderkey = o_orderkey and l_partkey = p_partkey and p_size < 10)`,
	`select count(*), sum(o_totalprice) from orders where o_custkey in (
		select c_custkey from customer, nation where c_nationkey = n_nationkey and n_name = 'GERMANY')`,
	`select n_name, r_name, n_nationkey from nation, region where n_regionkey = r_regionkey`,
	`select n_name, c_name, p_name from nation, customer, part
		where n_nationkey = c_nationkey and n_name = 'FRANCE' and p_size = 3`,
	`select n_name, r_name, s_name from nation, region, supplier
		where n_nationkey = s_nationkey and r_name = 'ASIA' and s_acctbal > 9000`,
	`select c_name, o_orderkey, o_totalprice from customer, orders
		where c_custkey = o_custkey and o_totalprice > 400000 order by o_totalprice desc, c_name`,
	`select l_orderkey, count(*), sum(l_quantity) from lineitem
		group by l_orderkey having sum(l_quantity) > 150`,
	`select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem
		group by l_orderkey order by revenue desc, l_orderkey limit 10`,
	`select o_orderpriority, count(distinct o_custkey), min(o_totalprice), max(o_orderdate) from orders
		group by o_orderpriority order by o_orderpriority`,
	`select count(*) from orders where o_totalprice > (
		select avg(l_extendedprice) * 4 from lineitem where l_orderkey = o_orderkey)`,
	`select count(*) from orders where exists (
		select l_orderkey from lineitem where l_orderkey = o_orderkey group by l_orderkey having count(*) > 5)`,
}

// reuseStatements returns the eight templates as the cluster receives them
// (seqscan on), their SVP sub-queries (seqscan off, key range ANDed on) and
// the shapes above.
func reuseStatements() (texts []string, seqscanOff []bool) {
	for _, qn := range tpch.QueryNumbers {
		texts, seqscanOff = append(texts, tpch.MustQuery(qn)), append(seqscanOff, false)
		texts, seqscanOff = append(texts, svpSubquery(qn)), append(seqscanOff, true)
	}
	for _, s := range reuseShapes {
		texts, seqscanOff = append(texts, s), append(seqscanOff, false)
	}
	return texts, seqscanOff
}

func reuseNode(t *testing.T) *engine.Node {
	t.Helper()
	cfg := costmodel.Default()
	cfg.CachePages = 1 << 16 // the database fits: the pool's state is the same for every run
	db := engine.NewDatabase(cfg)
	nd, err := tpch.Generator{SF: 0.003, Seed: 1}.Load(db)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestKeptJoinTuplesRetentionGuard: a join tuple lives only as long as its
// consumer needs it — until the producer's next next call under a per-batch
// consumer, until the keeper's close in a keeper's arena — so a consumer
// that read one later would read a tuple cut after it. The same holds for
// an aggregate's groups (their keys and states) and its arena rows, valid
// until the aggregate's next open or close. With the guard on, a per-batch
// producer poisons its previous batch before it cuts the next, an
// aggregate's table poisons what it still holds when it rewinds at open,
// and a released arena chunk — a join's, an aggregate's groups, states and
// rows — is poisoned instead of cleared; rows must then be bit-identical,
// in identical order, to the plan with slab tuples and heap aggregate rows
// only — the eight templates, their SVP sub-queries and the shapes above,
// at batch sizes 1, 7 and 256 — and charge the modelled clock the same. (A
// batch size changes neither rows nor charges, TestBatchBoundaries says,
// so one reference serves all three.)
func TestKeptJoinTuplesRetentionGuard(t *testing.T) {
	nd := reuseNode(t)
	defer engine.SetJoinTupleTest(false, false)
	texts, off := reuseStatements()
	for i, text := range texts {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		nd.Set("enable_seqscan", sqltypes.NewBool(!off[i]))
		run := func(batch int) (string, int64) {
			before := nd.Meter().Virtual()
			res, err := nd.QueryStmtAt(sel, nd.Watermark(), engine.QueryOpts{BatchSize: batch})
			if err != nil {
				t.Fatalf("%s\nbatch %d: %v", text, batch, err)
			}
			return tpchFingerprint(res), int64(nd.Meter().Virtual() - before)
		}
		engine.SetJoinTupleTest(false, true)
		run(0) // warm the buffer pool
		want, wantCharge := run(0)
		if want == "" {
			t.Fatalf("statement %d: empty result\n%s", i, text)
		}
		engine.SetJoinTupleTest(true, false)
		for _, batch := range []int{1, 7, 256} {
			got, charge := run(batch)
			label := fmt.Sprintf("statement %d (batch size %d)", i, batch)
			if got != want {
				t.Errorf("%s: poisoned arenas return different rows than slab tuples\n%s\ngot:\n%s\nwant:\n%s", label, text, got, want)
			}
			if charge != wantCharge {
				t.Errorf("%s: modelled charge %d ns with arenas, %d with slab tuples", label, charge, wantCharge)
			}
		}
	}
}

// TestReusedJoinTuplesPlannerInvariant: over the same statements, every
// join, copying filter and aggregate cuts its
// tuples where its consumer needs them — per batch (for an aggregate: from
// its own arena) only under an aggregate, a projection, a join's probe
// side, a nested loop's outer side or a copying filter; from an arena only
// its consumer's own; from a slab only under a plan or sub-plan root — so
// an aggregate's arena row never reaches a root or a keeper. Every
// template that joins (Q3, Q5, Q12, Q14, Q21) has at least one per-batch
// join, as a statement and as a sub-query, Q3's and Q5's build-side joins
// (Q5's build chain) cut their tuples from the joins that keep them, every
// template's aggregate renders into its arena, and so do the aggregates of the shapes but the one under EXISTS,
// whose sub-plan root is the HAVING filter.
func TestReusedJoinTuplesPlannerInvariant(t *testing.T) {
	nd := reuseNode(t)
	texts, off := reuseStatements()
	wantKept := map[string]int{tpch.MustQuery(3): 1, svpSubquery(3): 1, tpch.MustQuery(5): 4, svpSubquery(5): 3}
	// Every statement that aggregates has one aggregate under a projection;
	// the correlated scalar shape has two.
	wantArenaAggs := func(text string) int {
		switch {
		case strings.Contains(text, "avg(l_extendedprice) * 4"):
			return 2
		case strings.Contains(text, "count(") || strings.Contains(text, "sum("):
			return 1
		}
		return 0
	}
	for i, text := range texts {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		nd.Set("enable_seqscan", sqltypes.NewBool(!off[i]))
		homes, err := nd.TupleReport(sel)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, b := range homes.Bad {
			t.Errorf("%s in\n%s", b, text)
		}
		if i < 2*len(tpch.QueryNumbers) && len(sel.From) > 1 && homes.PerBatch == 0 {
			t.Errorf("no join cuts per-batch tuples in\n%s", text)
		}
		if homes.Kept < wantKept[text] {
			t.Errorf("%d joins cut their tuples from a keeper's arena, want %d, in\n%s", homes.Kept, wantKept[text], text)
		}
		if want := wantArenaAggs(text); homes.ArenaAggregates != want {
			t.Errorf("%d aggregates render into their arena, want %d, in\n%s", homes.ArenaAggregates, want, text)
		}
	}
}
