package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"apuama/internal/cluster"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// fuzzStack is one tiny shared TPC-H deployment for FuzzDecompose. The
// fuzz inputs are read-only selects, so every iteration can share it.
type fuzzStack struct {
	eng *Engine
	ctl *cluster.Controller
	ref *engine.Node
}

var (
	fuzzOnce  sync.Once
	fuzzShare *fuzzStack
	fuzzErr   error
)

// fuzzSF keeps the dataset tiny (orders ~375 rows, lineitem ~1500):
// the point is composition correctness, not volume, and mutated inputs
// can be cross joins whose cost is quadratic in table size.
const fuzzSF = 0.0005

func getFuzzStack() (*fuzzStack, error) {
	fuzzOnce.Do(func() {
		db := engine.NewDatabase(costmodel.TestConfig())
		if _, err := (tpch.Generator{SF: fuzzSF, Seed: 1}).Load(db); err != nil {
			fuzzErr = err
			return
		}
		nodes := make([]*engine.Node, 3)
		for i := range nodes {
			nodes[i] = engine.NewNode(i, db)
		}
		eng := New(db, nodes, TPCHCatalog(), DefaultOptions(), nil)
		ctl := cluster.New(db, eng.Backends(), nil)
		ref := engine.NewNode(99, db)
		if err := ref.AttachAt(nodes[0].Watermark()); err != nil {
			fuzzErr = err
			return
		}
		fuzzShare = &fuzzStack{eng: eng, ctl: ctl, ref: ref}
	})
	return fuzzShare, fuzzErr
}

// FuzzDecompose asserts the SVP decomposition invariant over arbitrary
// select statements: whatever the cluster path does with a query —
// virtual-partition rewrite, parallel dispatch and composition, or
// pass-through fallback — its answer must equal a direct single-node
// scan of the same snapshot. Inputs that do not parse, reference
// unknown tables/columns, or fail on the reference node are skipped
// (the parser's own robustness is FuzzParse's job); inputs where the
// reference succeeds but the cluster errors or diverges are bugs.
//
// Skipped shapes, with reasons:
//   - LIMIT truncates a row set whose order is only fully specified
//     when ORDER BY is a total order; with ties, single-node and
//     composed answers may legitimately keep different rows.
//   - Two-table FROM without a WHERE clause is an unconstrained cross
//     join — correctness holds but the row count is quadratic and the
//     fuzzer would spend its budget materializing it.
//   - More than two tables, for the same cost reason.
func FuzzDecompose(f *testing.F) {
	seeds := []string{
		"select count(*) from lineitem",
		"select sum(l_quantity), avg(l_discount), min(l_shipdate), max(l_tax) from lineitem",
		"select l_returnflag, l_linestatus, sum(l_extendedprice * (1 - l_discount)) from lineitem group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
		"select count(*) from orders where o_orderpriority <> '1-URGENT'",
		"select o_orderstatus, count(*) from orders group by o_orderstatus having count(*) > 1 order by o_orderstatus",
		"select sum(l_extendedprice * l_discount) from lineitem where l_discount between 0.05 and 0.07 and l_quantity < 24",
		"select o_orderkey, o_totalprice from orders where o_orderkey < 100 order by o_totalprice desc, o_orderkey",
		"select count(distinct l_suppkey) from lineitem",
		"select o.o_orderstatus, sum(l.l_quantity) from orders o, lineitem l where o.o_orderkey = l.l_orderkey group by o.o_orderstatus order by o.o_orderstatus",
		"select case when l_quantity > 25 then 'big' else 'small' end as bucket, count(*) from lineitem group by case when l_quantity > 25 then 'big' else 'small' end order by bucket",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 || !utf8.ValidString(src) {
			t.Skip()
		}
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Skip()
		}
		if stmt.Limit != nil {
			t.Skip()
		}
		if len(stmt.From) > 2 || (len(stmt.From) == 2 && stmt.Where == nil) {
			t.Skip()
		}
		s, err := getFuzzStack()
		if err != nil {
			t.Fatalf("stack: %v", err)
		}
		want, err := s.ref.Query(src)
		if err != nil {
			t.Skip() // semantically invalid (unknown table, type error, ...)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		got, err := s.ctl.QueryContext(ctx, src)
		if err != nil {
			t.Fatalf("cluster failed where single node succeeded\nquery: %q\nerror: %v", src, err)
		}
		assertRowsULP(t, fmt.Sprintf("decompose %q", src), got, want)
	})
}
