package core

import (
	"context"
	"fmt"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// preparedParts is how many partitions the prepared-plan tests cut a key
// domain into: an odd count, so the widths differ by one key.
const preparedParts = 7

// subqueryRun is one partition's sub-query as one side ran it: the rows
// bit-exactly, the modelled charge of the open and the plan.
type subqueryRun struct {
	rows, plan string
	charge     int64
	reused     bool
}

// drain opens cur's rows into a result and closes it, returning the
// node's modelled charge since before.
func drain(t *testing.T, nd *engine.Node, cur *engine.Cursor, before int64) (*engine.Result, int64) {
	t.Helper()
	res := &engine.Result{Cols: cur.Cols()}
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	for {
		if err := cur.Next(b); err != nil {
			cur.Close()
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		res.Rows = append(res.Rows, b.Rows...)
	}
	cur.Close()
	return res, int64(nd.Meter().Virtual()) - before
}

// runFresh plans stmt on nd as the parent planned every sub-query: from
// scratch, literals written in.
func runFresh(t *testing.T, nd *engine.Node, stmt *sql.SelectStmt, opts engine.QueryOpts) subqueryRun {
	t.Helper()
	p, err := nd.Prepare(stmt, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := int64(nd.Meter().Virtual())
	cur, err := p.OpenAt(nd.Watermark(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, charge := drain(t, nd, cur, before)
	return subqueryRun{rows: bitFingerprint(res), plan: fmt.Sprint(p.Explain().Rows), charge: charge}
}

// runWorker runs the template with args on p as a claim loop's attempt
// does, keeping the worker's prepared plan in prep.
func runWorker(t *testing.T, p *NodeProcessor, tmpl *sql.SelectStmt, args []sqltypes.Value, prep **engine.Prepared, opts engine.QueryOpts) subqueryRun {
	t.Helper()
	nd := p.Node()
	before := int64(nd.Meter().Virtual())
	rows := engine.NewRowArena() // as an attempt's: the rows outlive the cursor
	defer rows.Release()
	cur, reused, err := p.open(tmpl, args, nd.Watermark(), opts, prep, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, charge := drain(t, nd, cur, before)
	return subqueryRun{rows: bitFingerprint(res), plan: fmt.Sprint((*prep).Explain().Rows), charge: charge, reused: reused}
}

// preparedDB loads TPC-H into a database whose buffer pools hold it all,
// so a node's charges depend only on the plans it runs once it is warm.
func preparedDB(t *testing.T) *engine.Database {
	t.Helper()
	cfg := costmodel.TestConfig()
	cfg.CachePages = 1 << 16
	db := engine.NewDatabase(cfg)
	if _, err := (tpch.Generator{SF: testSF, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// warm reads every relation through each node's pool.
func warm(t *testing.T, nodes ...*engine.Node) {
	t.Helper()
	for _, nd := range nodes {
		for table := range tpch.Cardinalities(testSF) {
			if _, err := nd.Query("select count(*) from " + table); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// subqueryCase is one statement, rewritten for SVP, with its key domain.
type subqueryCase struct {
	name   string
	rw     *Rewrite
	lo, hi int64
}

func newSubqueryCase(t *testing.T, db *engine.Database, name, text string) subqueryCase {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := PlanSVP(sel, TPCHCatalog())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lo, hi, err := TPCHCatalog().KeyDomain(db, rw.Table)
	if err != nil {
		t.Fatal(err)
	}
	return subqueryCase{name: name, rw: rw, lo: lo, hi: hi}
}

// compareWorker runs every partition of c fresh on one node and through
// a worker's prepared plan on another, failing on any difference in rows,
// charge or (where the plan was reused) EXPLAIN. It returns how many
// partitions re-opened the worker's plan.
func compareWorker(t *testing.T, fresh *engine.Node, worker *NodeProcessor, c subqueryCase, opts engine.QueryOpts) (reused int) {
	t.Helper()
	tmpl := c.rw.template()
	var prep *engine.Prepared
	for i := 0; i < preparedParts; i++ {
		v1, v2 := Partition(c.lo, c.hi, preparedParts, i)
		want := runFresh(t, fresh, c.rw.SubQuery(i, preparedParts, c.lo, c.hi), opts)
		got := runWorker(t, worker, tmpl, c.rw.rangeArgs(v1, v2), &prep, opts)
		label := fmt.Sprintf("%s partition %d [%d, %d) force=%v (reused %v)", c.name, i, v1, v2, opts.ForceIndexScan, got.reused)
		if got.rows != want.rows {
			t.Errorf("%s: rows differ from the fresh plan's\ngot:\n%s\nwant:\n%s", label, got.rows, want.rows)
		}
		if got.charge != want.charge {
			t.Errorf("%s: modelled charge %d ns, fresh plan %d", label, got.charge, want.charge)
		}
		if got.plan != want.plan {
			t.Errorf("%s: EXPLAIN\n%s\nfresh plan\n%s", label, got.plan, want.plan)
		}
		if got.reused {
			reused++
		}
	}
	return reused
}

// TestPreparedSubqueryMatchesFresh is the prepared ≡ fresh oracle: every
// partition of each of the eight templates, with sequential scans
// forbidden (the paper's setting) and allowed, returns
// bit-identical rows, charges the modelled clock identically and EXPLAINs
// identically whether a worker re-opens its prepared plan or the parent's
// fresh plan of the statement with literals runs. With sequential scans
// forbidden every partition after the first re-opens the plan; allowed,
// only those whose range is as wide as the planned one may. A ninth
// statement has an uncorrelated sub-query, which materializes once per
// execution: a re-opened plan must run it again.
func TestPreparedSubqueryMatchesFresh(t *testing.T) {
	db := preparedDB(t)
	fresh, worker := engine.NewNode(1, db), NewNodeProcessor(engine.NewNode(2, db), 1)
	warm(t, fresh, worker.Node())
	var cases []subqueryCase
	for _, qn := range tpch.QueryNumbers {
		cases = append(cases, newSubqueryCase(t, db, fmt.Sprintf("Q%d", qn), tpch.MustQuery(qn)))
	}
	cases = append(cases, newSubqueryCase(t, db, "uncorrelated IN", `select o_orderpriority, count(*) from orders
		where o_custkey in (select c_custkey from customer, nation where c_nationkey = n_nationkey and n_name = 'GERMANY')
		group by o_orderpriority`))
	for _, c := range cases {
		for _, force := range []bool{true, false} {
			reused := compareWorker(t, fresh, worker, c, engine.QueryOpts{ForceIndexScan: force})
			if force && reused != preparedParts-1 {
				t.Errorf("%s, seqscan off: %d of %d partitions re-opened the worker's plan", c.name, reused, preparedParts-1)
			}
		}
	}
}

// TestPreparedSubqueryRefusesBakedArguments: a plan whose arguments
// reached more than its bound slots re-plans every partition, and still
// answers like the fresh plan. A wide_fetch-shaped range and a point
// lookup bound the partitioning column themselves, so the partition's
// bounds intersect with theirs; a columnar scan keeps every conjunct in
// its filter and zone maps, and so does MQO's shared scan over it.
func TestPreparedSubqueryRefusesBakedArguments(t *testing.T) {
	db := preparedDB(t)
	fresh, worker := engine.NewNode(1, db), NewNodeProcessor(engine.NewNode(2, db), 1)
	warm(t, fresh, worker.Node())
	refused := func(c subqueryCase) {
		t.Helper()
		if n := compareWorker(t, fresh, worker, c, engine.QueryOpts{ForceIndexScan: true}); n != 0 {
			t.Errorf("%s: %d partitions re-opened a plan whose arguments are baked in", c.name, n)
		}
	}
	refused(newSubqueryCase(t, db, "wide_fetch",
		"select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= 100 and l_orderkey < 2000"))
	refused(newSubqueryCase(t, db, "oltp_point",
		"select o_totalprice, o_orderdate, o_orderstatus from orders where o_orderkey = 1543"))
	for _, mqo := range []bool{false, true} {
		db.SetColumnar(true)
		db.SetMQO(mqo)
		for _, qn := range []int{1, 3, 6} {
			refused(newSubqueryCase(t, db, fmt.Sprintf("Q%d columnar (MQO %v)", qn, mqo), tpch.MustQuery(qn)))
		}
	}
	db.SetColumnar(false)
	db.SetMQO(false)
}

// TestPlansPerQueryAtMostClaimingWorkers: on a fault-free cluster each
// node's claim loop plans its sub-query once and re-opens that plan for
// every further partition it claims, so a query builds no more plans than
// it has workers that claimed a partition. Each re-opened attempt's
// subquery span says plan=reused.
func TestPlansPerQueryAtMostClaimingWorkers(t *testing.T) {
	opts := DefaultOptions()
	opts.AVPGranularity = 4 // 16 partitions on 4 nodes: every worker claims several
	s := buildStack(t, 4, opts)
	defer s.ctl.Close()
	defer s.eng.Close()
	tr := obs.NewTracer(len(tpch.QueryNumbers), 0)
	for _, qn := range tpch.QueryNumbers {
		q := tpch.MustQuery(qn)
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		root := tr.StartQuery(fmt.Sprintf("Q%d", qn))
		res, err := s.eng.RunSVP(obs.WithSpan(context.Background(), root), sel)
		root.End()
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		assertSameResult(t, fmt.Sprintf("Q%d", qn), res, s.single(t, q), false)
	}
	log := tr.SlowLog()
	if len(log) != len(tpch.QueryNumbers) {
		t.Fatalf("slow log holds %d queries, want %d", len(log), len(tpch.QueryNumbers))
	}
	for _, q := range log {
		plans, reused, workers := 0, 0, map[string]bool{}
		for _, c := range q.Children {
			if c.Name != "subquery" {
				continue
			}
			workers[c.Attr("node")] = true
			if c.Attr("plan") == "reused" {
				reused++
			} else {
				plans++
			}
		}
		if plans > len(workers) {
			t.Errorf("%s: %d sub-query plans built for %d claiming workers", q.Attr("sql"), plans, len(workers))
		}
		if reused == 0 {
			t.Errorf("%s: no subquery span re-opened its worker's plan (%d plans)", q.Attr("sql"), plans)
		}
	}
}
