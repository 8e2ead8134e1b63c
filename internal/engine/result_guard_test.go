package engine_test

import (
	"database/sql"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	apuama "apuama"
	_ "apuama/internal/driver"
	"apuama/internal/engine"
	"apuama/internal/proto"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// guardStatement is one statement of the result-arena retention guard:
// ordered results compare row by row, unordered ones as sorted sets, and
// a LIMIT without ORDER BY by its row count and each row's presence in
// the answer of within, the same statement without the LIMIT. A template
// runs in the fault-free pass only: its root is a projection over an
// aggregate, and the faults need many rows per partition, not many shapes.
type guardStatement struct {
	name, text string
	ordered    bool
	within     string
	template   bool
}

// guardStatements are the shapes whose rows a query hands to the gather:
// the eight templates, a wide_fetch clustered-key range, a plain ORDER BY composed by memdb,
// which stores the winners' partial rows by reference, and pushed-down
// LIMITs — one stopping the gather early, one under ORDER BY. A point
// lookup and a range inside one partition (the key domain is [1, 1500],
// cut into four) pass through to one node, whose rows come from a pooled
// arena as well.
func guardStatements() []guardStatement {
	var out []guardStatement
	for _, q := range []int{1, 3, 4, 5, 6, 12, 14, 21} {
		out = append(out, guardStatement{name: fmt.Sprintf("Q%d", q), text: tpch.MustQuery(q), ordered: true, template: true})
	}
	return append(out,
		guardStatement{name: "range", text: "select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= 100 and l_orderkey < 4000"},
		guardStatement{name: "order by", text: "select o_orderkey, o_orderdate, o_orderpriority from orders where o_orderkey < 4000 order by o_orderdate, o_orderkey", ordered: true},
		guardStatement{name: "early limit", text: "select o_orderkey, o_clerk from orders limit 40", within: "select o_orderkey, o_clerk from orders"},
		guardStatement{name: "order by limit", text: "select o_orderkey, o_totalprice from orders order by o_totalprice desc, o_orderkey limit 25", ordered: true},
		guardStatement{name: "point lookup", text: "select o_orderkey, o_custkey, o_totalprice, o_orderdate, o_comment from orders where o_orderkey = 1000"},
		guardStatement{name: "one-partition range", text: "select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_shipmode, l_comment from lineitem where l_orderkey >= 100 and l_orderkey < 300"},
	)
}

// TestResultArenasRetentionGuard poisons result arenas as they go back to
// the pool — a winner's at Result.Release, once the server has encoded the
// rows, a dropped or losing attempt's at its abort — and serves every
// guard statement through the socket (proto.Serve and the database/sql
// driver), then with a flaky node (attempts retried in place after they
// streamed rows) and a node that crashes mid-stream (its attempt aborted,
// the partition re-run elsewhere). Every answer must equal the single
// node's (Node.Query): a row read after its arena was let go is poison.
func TestResultArenasRetentionGuard(t *testing.T) {
	engine.SetJoinTupleTest(true, false)
	defer engine.SetJoinTupleTest(false, false)
	c, db := guardCluster(t)
	_, nodes, _, _ := c.Internals()
	answers := map[string][][]any{} // the node's, by statement
	for _, st := range guardStatements() {
		checkServed(t, st.name, db, nodes[0], st, answers)
	}
	if got := c.Stats().FallbackReasons["one-partition"]; got != 2 {
		t.Fatalf("%d statements passed through as one-partition reads, want 2", got)
	}
	faults := []struct {
		name string
		inj  *apuama.FaultInjector
		hit  func() bool
	}{
		{"retried", apuama.NewFaultInjector(3).FlakyEvery(3), func() bool { return c.Stats().BackoffRetries > 0 }},
		{"requeued", apuama.NewFaultInjector(5).CrashMidQueryAt(1, 0), func() bool { return c.Stats().AVPRequeues > 0 }},
	}
	for _, f := range faults {
		if err := c.InjectFaults(2, f.inj); err != nil {
			t.Fatal(err)
		}
		// A failure that lands on a query whose gather has already
		// settled (the early LIMIT) retries nothing: go round again.
		for round := 0; round < 4 && (round == 0 || !f.hit()); round++ {
			for _, st := range guardStatements() {
				if !st.template {
					checkServed(t, fmt.Sprintf("%s %s", f.name, st.name), db, nodes[0], st, answers)
				}
			}
		}
		if err := c.InjectFaults(2, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.RecoverNode(2); err != nil {
			t.Fatal(err)
		}
		if !f.hit() {
			t.Errorf("%s: no attempt was %s: %+v", f.name, f.name, c.Stats())
		}
	}
}

// guardCluster serves a four-node TPC-H cluster through the wire protocol
// and opens a database/sql handle on it.
func guardCluster(t *testing.T) (*apuama.Cluster, *sql.DB) {
	t.Helper()
	cfg := apuama.Config{Nodes: 4, Cost: apuama.DefaultCost()}
	cfg.Cost.RealSleep = false
	cfg.Engine.QueryTimeout = time.Minute
	c, err := apuama.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadTPCH(0.001, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := proto.Serve("127.0.0.1:0", c, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	db, err := sql.Open("apuama", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return c, db
}

// checkServed compares st served through the socket with node's answer,
// which it keeps in answers.
func checkServed(t *testing.T, name string, db *sql.DB, node *engine.Node, st guardStatement, answers map[string][][]any) {
	t.Helper()
	answer := func(text string) [][]any {
		if _, ok := answers[text]; !ok {
			answers[text] = nodeRows(t, name, node, text)
		}
		return answers[text]
	}
	got := scanServed(t, name, db, st.text)
	want := answer(st.text)
	if st.within != "" {
		all := map[string]bool{}
		for _, r := range answer(st.within) {
			all[fmt.Sprint(r...)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for _, r := range got {
			if !all[fmt.Sprint(r...)] {
				t.Fatalf("%s: row %v is no row of the table", name, r)
			}
		}
		return
	}
	if !st.ordered {
		want = slices.Clone(want)
		sortRows(got)
		sortRows(want)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameCells(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", name, i, got[i], want[i])
		}
	}
}

// scanServed drains a query through database/sql.
func scanServed(t *testing.T, name string, db *sql.DB, text string) [][]any {
	t.Helper()
	rows, err := db.Query(text)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]any
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// nodeRows runs text on one node and renders its values the way the
// driver hands them out.
func nodeRows(t *testing.T, name string, node *engine.Node, text string) [][]any {
	t.Helper()
	res, err := node.Query(text)
	if err != nil {
		t.Fatalf("%s on the node: %v", name, err)
	}
	out := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			switch v.K {
			case sqltypes.KindNull:
			case sqltypes.KindInt:
				out[i][j] = v.I
			case sqltypes.KindFloat:
				out[i][j] = v.F
			case sqltypes.KindString:
				out[i][j] = v.S
			case sqltypes.KindBool:
				out[i][j] = v.I != 0
			case sqltypes.KindDate:
				out[i][j] = time.Unix(v.I*24*60*60, 0).UTC()
			default:
				t.Fatalf("%s: no driver value for %s", name, v.K)
			}
		}
	}
	return out
}

// sameCells compares two rendered rows: floats within 1e-9 relative (an
// SVP sum adds its partials in another order than one node does), the
// rest exactly.
func sameCells(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, xf := a[i].(float64)
		y, yf := b[i].(float64)
		switch {
		case xf && yf:
			if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return false
			}
		case xf || yf:
			return false
		case fmt.Sprint(a[i]) != fmt.Sprint(b[i]):
			return false
		}
	}
	return true
}

// sortRows orders rows by their rendering, each rendered once.
func sortRows(rows [][]any) {
	type keyed struct {
		key string
		row []any
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%v|", v)
		}
		ks[i] = keyed{b.String(), r}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		rows[i] = ks[i].row
	}
}
