package engine_test

import (
	"fmt"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// reuseShapes are the consumers around a join that decide whether it may
// reuse its tuples: a join under a filter, a join as a join's build input,
// a join under ORDER BY … LIMIT, `exists (select * from a, b …)` whose
// projection the binder drops (the join becomes the sub-plan's root), a
// cached uncorrelated IN over a join, and a plain join whose rows
// QueryStmtAt hands back.
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

// TestReusedJoinTuplesRetentionGuard: a reusing join's tuples live until
// its next next call, so a consumer that kept one would read a later
// tuple. With the guard on, every reusing join overwrites its previous
// batch with poison before it writes the next one; rows must then be
// bit-identical, in identical order, to the plan with slab tuples only —
// the eight templates, their SVP sub-queries and the reuse shapes, serial
// and at degree 4, at batch sizes 1, 7 and 256 — and charge the modelled
// clock the same. (A batch size changes neither rows nor charges,
// TestBatchBoundaries says, so one reference per degree serves all three.)
func TestReusedJoinTuplesRetentionGuard(t *testing.T) {
	nd := reuseNode(t)
	defer engine.SetJoinTupleTest(false, false)
	texts, off := reuseStatements()
	for i, text := range texts {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		nd.Set("enable_seqscan", sqltypes.NewBool(!off[i]))
		for _, degree := range []int{1, 4} {
			run := func(batch int) (string, int64) {
				before := nd.Meter().Virtual()
				res, err := nd.QueryStmtAt(sel, nd.Watermark(), engine.QueryOpts{Parallelism: degree, BatchSize: batch})
				if err != nil {
					t.Fatalf("%s\ndegree %d batch %d: %v", text, degree, batch, err)
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
				label := fmt.Sprintf("statement %d (degree %d, batch size %d)", i, degree, batch)
				if got != want {
					t.Errorf("%s: poisoned reuse returns different rows than slab tuples\n%s\ngot:\n%s\nwant:\n%s", label, text, got, want)
				}
				if charge != wantCharge {
					t.Errorf("%s: modelled charge %d ns with reuse, %d with slab tuples", label, charge, wantCharge)
				}
			}
		}
	}
}

// TestReusedJoinTuplesPlannerInvariant: over the same statements, serial
// and at degree 4, every join the planner lets reuse its tuples feeds an
// aggregate, a projection or a join's probe side directly — never a
// filter, a sort, a build side, a nested loop, a sub-plan's run or the
// plan root — and every template that joins (Q3, Q5, Q12, Q14, Q21) has at
// least one such join, as a statement and as a sub-query.
func TestReusedJoinTuplesPlannerInvariant(t *testing.T) {
	nd := reuseNode(t)
	texts, off := reuseStatements()
	for i, text := range texts {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		nd.Set("enable_seqscan", sqltypes.NewBool(!off[i]))
		for _, degree := range []int{1, 4} {
			reusing, bad, err := nd.ReuseReport(sel, degree)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			for _, b := range bad {
				t.Errorf("degree %d: %s in\n%s", degree, b, text)
			}
			if i < 2*len(tpch.QueryNumbers) && len(sel.From) > 1 && reusing == 0 {
				t.Errorf("degree %d: no join reuses its tuples in\n%s", degree, text)
			}
		}
	}
}
