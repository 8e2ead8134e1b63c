package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"apuama/internal/cluster"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

const testSF = 0.002

// stack is a full Apuama deployment for tests.
type stack struct {
	db    *engine.Database
	nodes []*engine.Node
	eng   *Engine
	ctl   *cluster.Controller
}

func buildStack(t *testing.T, n int, opts Options) *stack {
	t.Helper()
	db := engine.NewDatabase(costmodel.TestConfig())
	if _, err := (tpch.Generator{SF: testSF, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*engine.Node, n)
	for i := range nodes {
		nodes[i] = engine.NewNode(i, db)
	}
	eng := New(db, nodes, TPCHCatalog(), opts)
	ctl := cluster.New(db, eng.Backends(), cluster.Options{})
	// Every test that builds a stack also checks the composer's lifetime
	// rule: whatever the queries did — succeed, fail, time out, roll a
	// hedge back, stop at a LIMIT — no composition table outlives them.
	t.Cleanup(func() {
		if live, _ := eng.mem.Stats(); live != 0 {
			t.Errorf("memdb still holds %d composition table(s) after the test", live)
		}
	})
	return &stack{db: db, nodes: nodes, eng: eng, ctl: ctl}
}

// single runs a query on a standalone reference node attached at the
// cluster's current replication position.
func (s *stack) single(t *testing.T, sqlText string) *engine.Result {
	t.Helper()
	ref := engine.NewNode(99, s.db)
	if err := ref.AttachAt(s.nodes[0].Watermark()); err != nil {
		t.Fatal(err)
	}
	res, err := ref.Query(sqlText)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	return res
}

func sortRows(rows []sqltypes.Row) {
	less := func(a, b sqltypes.Row) bool {
		for i := range a {
			if c := sqltypes.Compare(a[i], b[i]); c != 0 {
				return c < 0
			}
		}
		return false
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// assertSameResult compares results up to float rounding; order-sensitive
// unless sortFirst.
func assertSameResult(t *testing.T, label string, got, want *engine.Result, sortFirst bool) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	g := append([]sqltypes.Row(nil), got.Rows...)
	w := append([]sqltypes.Row(nil), want.Rows...)
	if sortFirst {
		sortRows(g)
		sortRows(w)
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(g[i]), len(w[i]))
		}
		for c := range g[i] {
			a, b := g[i][c], w[i][c]
			if a.IsNull() != b.IsNull() {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a, b)
			}
			if a.IsNull() {
				continue
			}
			if a.K == sqltypes.KindFloat || b.K == sqltypes.KindFloat {
				af, bf := a.AsFloat(), b.AsFloat()
				diff := af - bf
				if diff < 0 {
					diff = -diff
				}
				scale := bf
				if scale < 0 {
					scale = -scale
				}
				if scale < 1 {
					scale = 1
				}
				if diff/scale > 1e-9 {
					t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a, b)
				}
				continue
			}
			if sqltypes.Compare(a, b) != 0 {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a, b)
			}
		}
	}
}

// TestSVPEquivalenceAllQueries is the repository's central oracle: every
// paper query produces identical results through SVP on 1..5 nodes and
// on a single node.
func TestSVPEquivalenceAllQueries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		s := buildStack(t, n, DefaultOptions())
		for _, qn := range tpch.QueryNumbers {
			text := tpch.MustQuery(qn)
			want := s.single(t, text)
			got, err := s.ctl.Query(text)
			if err != nil {
				t.Fatalf("n=%d Q%d: %v", n, qn, err)
			}
			// All 8 queries have deterministic output order (ORDER BY or
			// scalar) except ties; compare sorted.
			assertSameResult(t, fmt.Sprintf("n=%d Q%d", n, qn), got, want, true)
		}
		st := s.eng.Snapshot()
		if st.SVPQueries != int64(len(tpch.QueryNumbers)) {
			t.Errorf("n=%d: %d SVP queries, want %d (fallbacks: %v)", n, st.SVPQueries, len(tpch.QueryNumbers), st.FallbackReasons)
		}
	}
}

// TestSVPEquivalenceStreamingComposer repeats the oracle through the
// streaming-composer ablation.
func TestSVPEquivalenceStreamingComposer(t *testing.T) {
	opts := DefaultOptions()
	opts.StreamCompose = true
	s := buildStack(t, 3, opts)
	for _, qn := range tpch.QueryNumbers {
		text := tpch.MustQuery(qn)
		want := s.single(t, text)
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		assertSameResult(t, fmt.Sprintf("stream Q%d", qn), got, want, true)
	}
}

// TestSVPRandomParamsProperty: the oracle holds for randomized query
// parameters too.
func TestSVPRandomParamsProperty(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		qn := tpch.QueryNumbers[r.Intn(len(tpch.QueryNumbers))]
		text, err := tpch.RandomQuery(qn, r)
		if err != nil {
			t.Fatal(err)
		}
		want := s.single(t, text)
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("Q%d: %v\n%s", qn, err, text)
		}
		assertSameResult(t, fmt.Sprintf("trial %d Q%d", trial, qn), got, want, true)
	}
}

func TestPartitionCoverage(t *testing.T) {
	// Property: partitions tile [lo, hi] exactly — complete and disjoint.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lo := int64(r.Intn(100))
		hi := lo + int64(r.Intn(10000))
		n := r.Intn(32) + 1
		prev := lo
		for i := 0; i < n; i++ {
			v1, v2 := Partition(lo, hi, n, i)
			if v1 != prev {
				t.Fatalf("gap/overlap at partition %d/%d of [%d,%d]: v1=%d want %d", i, n, lo, hi, v1, prev)
			}
			if v2 < v1 {
				t.Fatalf("negative partition %d: [%d,%d)", i, v1, v2)
			}
			prev = v2
		}
		if prev != hi+1 {
			t.Fatalf("partitions do not cover [%d,%d]: end %d", lo, hi, prev)
		}
	}
}

func TestEligibility(t *testing.T) {
	cat := TPCHCatalog()
	cases := []struct {
		sql      string
		eligible bool
	}{
		{"select sum(l_quantity) from lineitem", true},
		{"select count(*) from orders where o_orderdate < date '1995-01-01'", true},
		{"select n_name from nation", false},                                                                      // no VP table
		{"select count(distinct l_suppkey) from lineitem", false},                                                 // distinct agg
		{"select * from orders", false},                                                                           // star
		{"select o_orderkey from orders where o_totalprice > (select avg(l_extendedprice) from lineitem)", false}, // uncorrelated VP subquery
		{"select o_orderpriority, count(*) from orders where exists (select 1 from lineitem where l_orderkey = o_orderkey) group by o_orderpriority order by o_orderpriority", true},
		{"select c_name from customer where c_custkey in (select o_custkey from orders)", false}, // subquery not key-correlated
		{"select sum(l_quantity) from lineitem order by missing_alias", false},
	}
	for _, c := range cases {
		stmt, err := sql.ParseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = PlanSVP(stmt, cat)
		if c.eligible && err != nil {
			t.Errorf("%s: unexpectedly ineligible: %v", c.sql, err)
		}
		if !c.eligible && err == nil {
			t.Errorf("%s: unexpectedly eligible", c.sql)
		}
	}
}

func TestSubQueryTextIsValidSQL(t *testing.T) {
	// The rewriter must emit sub-queries that parse: Apuama ships SQL
	// text to black-box engines.
	stmt, err := sql.ParseSelect(tpch.MustQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := PlanSVP(stmt, TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sub := rw.SubQuery(i, 4, 1, 6_000_000)
		text := sub.SQL()
		if _, err := sql.ParseSelect(text); err != nil {
			t.Fatalf("sub-query %d does not parse: %v\n%s", i, err, text)
		}
		if !strings.Contains(text, "l_orderkey >=") {
			t.Errorf("sub-query %d lacks range predicate:\n%s", i, text)
		}
	}
	// The paper's worked example: [1, 6,000,000] over 4 nodes.
	v1, v2 := Partition(1, 6_000_000, 4, 0)
	if v1 != 1 || v2 != 1_500_001 {
		t.Errorf("partition 0: [%d, %d)", v1, v2)
	}
	v1, v2 = Partition(1, 6_000_000, 4, 1)
	if v1 != 1_500_001 || v2 != 3_000_001 {
		t.Errorf("partition 1: [%d, %d)", v1, v2)
	}
}

func TestAvgDecomposition(t *testing.T) {
	stmt, err := sql.ParseSelect("select avg(l_quantity) as aq from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := PlanSVP(stmt, TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	// Partial must carry sum and count, not avg.
	ptext := rw.Partial.SQL()
	if !strings.Contains(ptext, "sum(l_quantity)") || !strings.Contains(ptext, "count(l_quantity)") {
		t.Errorf("partial: %s", ptext)
	}
	if strings.Contains(ptext, "avg(") {
		t.Errorf("partial still contains avg: %s", ptext)
	}
	ctext := rw.Compose.SQL()
	if !strings.Contains(ctext, "sum(a0)") || !strings.Contains(ctext, "sum(a1)") {
		t.Errorf("compose: %s", ctext)
	}
}

func TestPassThroughQueries(t *testing.T) {
	s := buildStack(t, 3, DefaultOptions())
	res, err := s.ctl.Query("select n_name from nation where n_nationkey = 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "SAUDI ARABIA" {
		t.Fatalf("%v", res.Rows)
	}
	st := s.eng.Snapshot()
	if st.PassThrough != 1 || st.SVPQueries != 0 {
		t.Errorf("stats: %+v", st)
	}
	if len(st.FallbackReasons) == 0 {
		t.Error("fallback reason not recorded")
	}
}

func TestWritesThroughApuamaKeepReplicasConsistent(t *testing.T) {
	s := buildStack(t, 3, DefaultOptions())
	if _, err := s.ctl.Exec("delete from orders where o_orderkey = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ctl.Exec("delete from lineitem where l_orderkey = 1"); err != nil {
		t.Fatal(err)
	}
	for _, nd := range s.nodes {
		res, err := nd.Query("select count(*) from orders where o_orderkey = 1")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 0 {
			t.Fatalf("node %d still sees deleted order", nd.ID())
		}
		if nd.Watermark() != 2 {
			t.Fatalf("node %d watermark %d", nd.ID(), nd.Watermark())
		}
	}
	// SVP query after updates sees the post-update state.
	got, err := s.ctl.Query("select count(*) from orders")
	if err != nil {
		t.Fatal(err)
	}
	want := s.single(t, "select count(*) from orders")
	assertSameResult(t, "post-update", got, want, false)
}

func TestConcurrentSVPAndUpdates(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	base := s.single(t, "select count(*) from orders").Rows[0][0].I
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Updaters insert and delete through the controller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			key := 900000 + i
			if _, err := s.ctl.Exec(fmt.Sprintf(
				"insert into orders values (%d, 1, 'O', 1.0, date '1997-01-01', '1-URGENT', 'Clerk#1', 0, 'x')", key)); err != nil {
				errs <- err
				return
			}
			if _, err := s.ctl.Exec(fmt.Sprintf("delete from orders where o_orderkey = %d", key)); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers run SVP counts; every result must be a consistent snapshot:
	// count is base + {0 or 1} (one insert in flight at most).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := s.ctl.Query("select count(*) from orders")
				if err != nil {
					errs <- err
					return
				}
				got := res.Rows[0][0].I
				if got != base && got != base+1 {
					errs <- fmt.Errorf("inconsistent snapshot: %d not in {%d,%d}", got, base, base+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.eng.Snapshot()
	if st.SVPQueries != 30 {
		t.Errorf("SVP queries: %d", st.SVPQueries)
	}
}

func TestBlockerAdmittanceProtocol(t *testing.T) {
	b := newBlocker()
	// Unblocked writes pass immediately.
	done := make(chan struct{})
	go func() {
		b.admitWrite(1)
		close(done)
	}()
	<-done
	// Blocked gate holds a new write but not a re-delivery of an
	// admitted one.
	b.block()
	passed := make(chan int64, 2)
	go func() {
		b.admitWrite(1) // already admitted: passes despite the block
		passed <- 1
	}()
	go func() {
		b.admitWrite(2) // new: must wait
		passed <- 2
	}()
	if got := <-passed; got != 1 {
		t.Fatalf("first pass was %d", got)
	}
	select {
	case got := <-passed:
		t.Fatalf("write %d passed a closed gate", got)
	default:
	}
	b.unblock()
	if got := <-passed; got != 2 {
		t.Fatalf("after unblock: %d", got)
	}
}

func TestNoBarrierMode(t *testing.T) {
	opts := DefaultOptions()
	opts.NoBarrier = true
	s := buildStack(t, 3, opts)
	want := s.single(t, tpch.MustQuery(6))
	got, err := s.ctl.Query(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "nobarrier Q6", got, want, false)
}

func TestDisableSVPBaseline(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableSVP = true
	s := buildStack(t, 3, opts)
	got, err := s.ctl.Query(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	want := s.single(t, tpch.MustQuery(6))
	assertSameResult(t, "baseline Q6", got, want, false)
	st := s.eng.Snapshot()
	if st.SVPQueries != 0 || st.PassThrough != 1 {
		t.Errorf("baseline stats: %+v", st)
	}
}

func TestSVPTouchesOnlyPartitionPages(t *testing.T) {
	// The physical heart of the paper: with SVP, each node's index range
	// scan touches roughly 1/n of the fact-table pages. Hedging off: on
	// a loaded host a >10ms goroutine stall would let the endgame hedge
	// duplicate a partition onto a second node, which is resilience
	// behaviour, not the IO locality under test here.
	opts := DefaultOptions()
	opts.DisableHedging = true
	s := buildStack(t, 4, opts)
	li, err := s.db.Relation("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	totalPages := int64(li.NumPages())
	for _, p := range s.eng.Procs() {
		p.Node().Pool().ResetStats()
	}
	if _, err := s.ctl.Query("select sum(l_extendedprice) from lineitem"); err != nil {
		t.Fatal(err)
	}
	for i, p := range s.eng.Procs() {
		_, misses := p.Node().Pool().Stats()
		if misses == 0 {
			t.Fatalf("node %d did no IO", i)
		}
		if misses > totalPages/2 {
			t.Errorf("node %d touched %d of %d pages: partition not honoured", i, misses, totalPages)
		}
	}
}

func TestKeyDomainErrors(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	cat := TPCHCatalog()
	if _, _, err := cat.KeyDomain(db, "nation"); err == nil {
		t.Error("non-VP table should fail")
	}
	if _, _, err := cat.KeyDomain(db, "orders"); err == nil {
		t.Error("missing table should fail")
	}
	// Empty table: no key domain.
	nd := engine.NewNode(0, db)
	if _, err := nd.Exec("create table orders (o_orderkey bigint, primary key (o_orderkey))"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cat.KeyDomain(db, "orders"); err == nil {
		t.Error("empty table should fail")
	}
}

func TestCatalogBasics(t *testing.T) {
	cat := TPCHCatalog()
	if vt, ok := cat.Lookup("lineitem"); !ok || vt.Root != "orders" {
		t.Errorf("lineitem: %+v %v", vt, ok)
	}
	if _, ok := cat.Lookup("nation"); ok {
		t.Error("nation should not be VP")
	}
	if !cat.IsKeyAttr("o_orderkey") || !cat.IsKeyAttr("l_orderkey") || cat.IsKeyAttr("o_custkey") {
		t.Error("key attrs")
	}
	if len(cat.Tables()) != 2 {
		t.Errorf("tables: %v", cat.Tables())
	}
}

func TestSubQueryErrorPropagates(t *testing.T) {
	s := buildStack(t, 2, DefaultOptions())
	// Force a runtime error inside sub-queries: division by zero.
	_, err := s.ctl.Query("select sum(l_quantity / (l_linenumber - l_linenumber)) from lineitem")
	if err == nil {
		t.Fatal("expected sub-query failure to propagate")
	}
	if !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("unexpected error: %v", err)
	}
}
