package driver

import (
	"database/sql"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	apuama "apuama"
)

// renderRow appends one row of database/sql values in an exact textual
// form: floats render as their IEEE bit pattern, so comparing renderings
// is bit-identical, not approximately-equal.
func renderRow(b *strings.Builder, vals []any) {
	for i, v := range vals {
		if i > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(b, "f:%016x", math.Float64bits(x))
		case time.Time:
			fmt.Fprintf(b, "d:%s", x.Format("2006-01-02"))
		case nil:
			b.WriteString("null")
		default:
			fmt.Fprintf(b, "%T:%v", v, v)
		}
	}
	b.WriteByte('\n')
}

// renderRows scans every row of a query through database/sql.
func renderRows(t *testing.T, db *sql.DB, query string) string {
	t.Helper()
	rows, err := db.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cols=%v\n", cols)
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		renderRow(&b, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return b.String()
}

// renderResult is renderRows for a result that never left the process.
func renderResult(t *testing.T, c *apuama.Cluster, query string) string {
	t.Helper()
	res, err := c.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cols=%v\n", res.Cols)
	vals := make([]any, len(res.Cols))
	for _, row := range res.Rows {
		for i, v := range row {
			if vals[i], err = toDriverValue(v); err != nil {
				t.Fatalf("%s: %v", query, err)
			}
		}
		renderRow(&b, vals)
	}
	return b.String()
}

// TestDifferentialSocketVsInProcess is the transport oracle: the same
// queries through the database/sql driver and straight through
// Cluster.Query on ONE cluster must produce bit-identical results — cold
// (first execution) and warm (result-cache hits) — or the columnar codec
// has corrupted a value in flight.
func TestDifferentialSocketVsInProcess(t *testing.T) {
	c, addr := startClusterCfg(t, apuama.Config{Nodes: 2, Engine: apuama.EngineOptions{Cache: apuama.CacheConfig{Entries: 64}}}, tinySF)
	db, err := sql.Open("apuama", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	queries := []string{
		"select count(*) from orders",
		"select count(*), sum(l_quantity) from lineitem",
		// Q1 shape: low-NDV strings, float aggregates, group by + order by.
		`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
		   sum(l_extendedprice) as sum_base_price, avg(l_discount) as avg_disc,
		   count(*) as count_order
		 from lineitem where l_shipdate <= '1998-09-02'
		 group by l_returnflag, l_linestatus
		 order by l_returnflag, l_linestatus`,
		// Wide row shipping: strings, floats, dates, many rows.
		"select o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority from orders order by o_orderkey",
		// Selective filter (zone-map path) with arithmetic.
		"select l_orderkey, l_extendedprice * (1 - l_discount) as revenue from lineitem where l_quantity >= 45 order by l_orderkey, revenue",
		// Join across shipped partials.
		`select n_name, count(*) from nation, region
		 where n_regionkey = r_regionkey group by n_name order by n_name`,
	}
	for _, label := range []string{"cold", "warm"} {
		for _, q := range queries {
			want := renderResult(t, c, q)
			got := renderRows(t, db, q)
			if got != want {
				t.Errorf("%s %q:\nsocket:\n%s\nin-process:\n%s", label, q, got, want)
			}
			if strings.Count(got, "\n") < 2 {
				t.Fatalf("%s %q returned no rows — oracle is vacuous", label, q)
			}
		}
	}
	if st := c.CacheStats(); st.Hits == 0 {
		t.Fatalf("no result-cache hit — the warm round is vacuous: %+v", st)
	}
}
