package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"apuama/internal/cache"
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
	tmpl := c.rw.template(0)
	var prep *engine.Prepared
	for i := 0; i < preparedParts; i++ {
		v1, v2 := Partition(c.lo, c.hi, preparedParts, i)
		want := runFresh(t, fresh, c.rw.SubQuery(i, preparedParts, c.lo, c.hi), opts)
		got := runWorker(t, worker, tmpl, c.rw.appendRangeArgs(nil, v1, v2), &prep, opts)
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
// execution: a re-opened plan must run it again. Then the same holds for
// a plan a shape keeps across queries: every template, parameterized, over
// shapeDraws seeded draws of its parameters and every partition.
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
	for _, qn := range tpch.QueryNumbers {
		for _, force := range []bool{true, false} {
			reused := compareShapeDraws(t, db, fresh, worker, qn, engine.QueryOpts{ForceIndexScan: force})
			if all := shapeDraws * preparedParts; force && reused != all-1 {
				t.Errorf("Q%d, seqscan off: %d of %d sub-queries re-opened the kept plan", qn, reused, all-1)
			}
		}
	}
}

// shapeOfRewrite is a shape whose SVP side is rw, with nargs arguments.
func shapeOfRewrite(rw *Rewrite, nargs int) *shape {
	sh := &shape{nargs: nargs}
	sh.svpOnce.Do(func() { sh.setRewrite(rw) })
	return sh
}

// shapeDraws is how many seeded draws of a template's parameters the
// kept-plan oracle runs.
const shapeDraws = 20

// compareShapeDraws runs shapeDraws draws of template qn through one
// shape, as the controller does: the worker takes the plan the shape kept
// on it, re-binds it to each partition's arguments — the draw's own, then
// the range — or plans afresh, and gives it back after the draw. Every
// partition must match the fresh plan of the literal statement: rows bit
// for bit, modelled charge and EXPLAIN. It returns how many sub-queries
// re-opened a kept or re-bound plan.
func compareShapeDraws(t *testing.T, db *engine.Database, fresh *engine.Node, worker *NodeProcessor, qn int, opts engine.QueryOpts) (reused int) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(qn)))
	var sh *shape
	var shapeText string
	for d := 0; d < shapeDraws; d++ {
		text, err := tpch.RandomQuery(qn, r)
		if err != nil {
			t.Fatal(err)
		}
		lit := newSubqueryCase(t, db, fmt.Sprintf("Q%d draw %d", qn, d), text)
		shaped := mustSel(t, text)
		args := sql.Parameterize(shaped, engine.FoldLiteral)
		if sh == nil {
			rw, err := PlanSVP(shaped, TPCHCatalog())
			if err != nil {
				t.Fatal(err)
			}
			sh, shapeText = shapeOfRewrite(rw, len(args)), shaped.SQL()
		} else if shaped.SQL() != shapeText {
			t.Fatalf("Q%d draw %d has another shape\n%s\n%s", qn, d, shaped.SQL(), shapeText)
		}
		prep := sh.take(planKey{p: worker})
		for i := 0; i < preparedParts; i++ {
			v1, v2 := Partition(lit.lo, lit.hi, preparedParts, i)
			want := runFresh(t, fresh, lit.rw.SubQuery(i, preparedParts, lit.lo, lit.hi), opts)
			all := sh.rw.appendRangeArgs(slices.Clone(args), v1, v2)
			got := runWorker(t, worker, sh.sub, all, &prep, opts)
			label := fmt.Sprintf("%s partition %d force=%v (reused %v)", lit.name, i, opts.ForceIndexScan, got.reused)
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
		sh.put(planKey{p: worker}, prep)
	}
	return reused
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

// TestShapePlansOncePerShape pins plan reuse across queries on a
// write-free cluster: a second round of the eight templates and an
// orders-only shape, every one with fresh parameters, builds no sub-query
// plan — every subquery span re-opens a kept plan (plan=reused) — and no
// composition table (memdb's created count holds). One write to lineitem
// then re-plans only the shapes that read it: their claim loops plan once
// each, and the orders-only shape still plans nothing.
func TestShapePlansOncePerShape(t *testing.T) {
	opts := DefaultOptions()
	opts.AVPGranularity = 4 // 16 partitions on 4 nodes: every worker claims several
	s := buildStack(t, 4, opts)
	defer s.ctl.Close()
	defer s.eng.Close()
	r := rand.New(rand.NewSource(39))
	round := func(label string) map[string][2]int {
		t.Helper()
		texts := map[string]string{
			"orders": fmt.Sprintf("select o_orderpriority, count(*) from orders where o_orderdate < date '199%d-06-01' group by o_orderpriority order by o_orderpriority", 3+r.Intn(5)),
		}
		for _, qn := range tpch.QueryNumbers {
			text, err := tpch.RandomQuery(qn, r)
			if err != nil {
				t.Fatal(err)
			}
			texts[fmt.Sprintf("Q%d", qn)] = text
		}
		tr := obs.NewTracer(len(texts), 0)
		for name, text := range texts {
			root := tr.StartQuery(name)
			res, err := s.eng.RunSVP(obs.WithSpan(context.Background(), root), mustSel(t, text))
			root.End()
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			assertSameResult(t, label+" "+name, res, s.single(t, text), false)
		}
		out := map[string][2]int{} // per query: plans built, claiming workers
		for _, q := range tr.SlowLog() {
			plans, workers := 0, map[string]bool{}
			for _, c := range q.Children {
				if c.Name == "subquery" {
					workers[c.Attr("node")] = true
					if c.Attr("plan") != "reused" {
						plans++
					}
				}
			}
			out[q.Attr("sql")] = [2]int{plans, len(workers)}
		}
		if len(out) != len(texts) {
			t.Fatalf("%s: the slow log holds %d queries, want %d", label, len(out), len(texts))
		}
		return out
	}
	first := round("first round")
	for name, pw := range first {
		if pw[0] == 0 || pw[0] > pw[1] {
			t.Errorf("first round %s: %d plans for %d claiming workers", name, pw[0], pw[1])
		}
	}
	_, created := s.eng.mem.Stats()
	for name, pw := range round("second round") {
		if pw[0] != 0 {
			t.Errorf("second round %s: %d sub-query plans built, want 0", name, pw[0])
		}
	}
	if _, again := s.eng.mem.Stats(); again != created {
		t.Errorf("second round: memdb created %d composition tables, want 0", again-created)
	}
	if _, err := s.ctl.Exec("delete from lineitem where l_orderkey = 1"); err != nil {
		t.Fatal(err)
	}
	for name, pw := range round("after a write") {
		if name == "orders" && pw[0] != 0 {
			t.Errorf("after a write to lineitem the orders-only shape built %d plans, want 0", pw[0])
		}
		if name != "orders" && (pw[0] == 0 || pw[0] > pw[1]) {
			t.Errorf("after a write to lineitem %s built %d plans for %d claiming workers", name, pw[0], pw[1])
		}
	}
}

// TestShapeDrawsNeverSharePartials: with the partial cache on, and then
// MQO's flights too, two draws of one shape with different literals never
// share a partial or a flight — each answers its own statement — while the
// first draw under another output name (a statement the result cache has
// not seen, with the same partial) does hit the partials of its run.
func TestShapeDrawsNeverSharePartials(t *testing.T) {
	for _, mqo := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Cache = cache.Config{Entries: 64, MaxBytes: 16 << 20}
		opts.MQO = mqo
		s := buildStack(t, 4, opts)
		a, b := tpch.Q6("1994-01-01", 0.06, 24), tpch.Q6("1995-01-01", 0.05, 25)
		ctx := context.Background()
		for _, text := range []string{a, b} {
			res, err := s.eng.RunSVP(ctx, mustSel(t, text))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("MQO %v: %s", mqo, text), res, s.single(t, text), false)
		}
		if st := s.eng.Snapshot(); st.CachePartialHits != 0 || st.CachePartialShares != 0 {
			t.Errorf("MQO %v: two draws of one shape shared %d partials and %d flights", mqo, st.CachePartialHits, st.CachePartialShares)
		}
		if _, err := s.eng.RunSVP(ctx, mustSel(t, strings.Replace(a, "as revenue", "as renamed", 1))); err != nil {
			t.Fatal(err)
		}
		if st := s.eng.Snapshot(); st.CachePartialHits == 0 {
			t.Errorf("MQO %v: a repeated draw hit no partial; the cache is not on", mqo)
		}
		s.ctl.Close()
		s.eng.Close()
	}
}

// TestShapePlansUnderConcurrentLiterals runs shapes with different
// literals from four goroutines at once — each claim loop taking and
// giving back the shapes' kept plans and tables beside the others — and
// every answer must be the reference node's for its own statement. Run
// under -race it checks the shapes' free lists.
func TestShapePlansUnderConcurrentLiterals(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	defer s.ctl.Close()
	defer s.eng.Close()
	const clients, perClient = 4, 6
	r := rand.New(rand.NewSource(4))
	texts := make([][]string, clients)
	want := map[string]*engine.Result{}
	for c := range texts {
		for i := 0; i < perClient; i++ {
			text, err := tpch.RandomQuery([]int{1, 3, 6, 12, 14}[(c+i)%5], r)
			if err != nil {
				t.Fatal(err)
			}
			texts[c] = append(texts[c], text)
			want[text] = s.single(t, text)
		}
	}
	got := make([][]*engine.Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range texts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, text := range texts[c] {
				sel, err := sql.ParseSelect(text)
				if err == nil {
					var res *engine.Result
					if res, err = s.eng.RunSVP(context.Background(), sel); err == nil {
						got[c] = append(got[c], res)
						continue
					}
				}
				errs[c] = err
				return
			}
		}(c)
	}
	wg.Wait()
	for c := range texts {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		for i, text := range texts[c] {
			assertSameResult(t, fmt.Sprintf("client %d query %d", c, i), got[c][i], want[text], false)
		}
	}
}
