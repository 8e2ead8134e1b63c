package main

import (
	"database/sql"
	"fmt"
	"math"
	"sort"
	"time"

	apuama "apuama"
	"apuama/internal/engine"
	"apuama/internal/sqltypes"
)

// floatTol is the gate's relative tolerance on floats. Bit-identity
// between the cluster and one node is ROADMAP item 1's open bug, so the
// gate does not ask for it.
const floatTol = 1e-9

// queryAll runs a statement through database/sql and keeps the values.
func queryAll(db *sql.DB, q string) ([][]any, error) {
	rows, err := db.Query(q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	var out [][]any
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, rows.Err()
}

// sameValue compares what the driver delivered with the node's value.
func sameValue(got any, want sqltypes.Value) bool {
	switch want.K {
	case sqltypes.KindNull:
		return got == nil
	case sqltypes.KindInt, sqltypes.KindFloat:
		var g float64
		switch v := got.(type) {
		case int64:
			if want.K == sqltypes.KindInt {
				return v == want.I
			}
			g = float64(v)
		case float64:
			g = v
		default:
			return false
		}
		w := want.F
		if want.K == sqltypes.KindInt {
			w = float64(want.I)
		}
		return g == w || math.Abs(g-w) <= floatTol*math.Max(math.Abs(g), math.Abs(w))
	case sqltypes.KindString:
		s, ok := got.(string)
		return ok && s == want.S
	case sqltypes.KindBool:
		b, ok := got.(bool)
		return ok && b == (want.I != 0)
	case sqltypes.KindDate:
		t, ok := got.(time.Time)
		return ok && t.Equal(time.Unix(0, 0).UTC().AddDate(0, 0, int(want.I)))
	default:
		return false
	}
}

// sameResult compares a driver result with a node result, row by row
// when ordered, as multisets when the statement has no ORDER BY.
func sameResult(got [][]any, want []sqltypes.Row, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, node 0 has %d", len(got), len(want))
	}
	if !ordered {
		got = append([][]any(nil), got...)
		want = append([]sqltypes.Row(nil), want...)
		sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]...) < fmt.Sprint(got[j]...) })
		sort.Slice(want, func(i, j int) bool { return rowKey(want[i]) < rowKey(want[j]) })
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, node 0 has %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d col %d: %v, node 0 has %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// rowKey renders a node row the way fmt.Sprint renders the driver's
// values for it, so both sides of an unordered comparison sort alike.
func rowKey(r sqltypes.Row) string {
	vals := make([]any, len(r))
	for i, v := range r {
		switch v.K {
		case sqltypes.KindNull:
			vals[i] = nil
		case sqltypes.KindInt:
			vals[i] = v.I
		case sqltypes.KindFloat:
			vals[i] = v.F
		case sqltypes.KindBool:
			vals[i] = v.I != 0
		case sqltypes.KindDate:
			vals[i] = time.Unix(0, 0).UTC().AddDate(0, 0, int(v.I))
		default:
			vals[i] = v.S
		}
	}
	return fmt.Sprint(vals...)
}

func node0(c *apuama.Cluster) *engine.Node {
	_, nodes, _, _ := c.Internals()
	return nodes[0]
}

// gate checks every statement class of the workload, through the socket,
// against Node.Query on node 0. Nothing writes while it runs, so both
// sides read the same snapshot. It returns the number of classes checked
// and the mismatches found.
func gate(e *env, w *workload, ops []op) (checked int, errs []error) {
	nd := node0(e.c)
	seen := make(map[int]bool)
	for _, o := range ops {
		if seen[o.class] {
			continue
		}
		seen[o.class] = true
		checked++
		want, err := nd.Query(o.sql)
		if err != nil {
			errs = append(errs, fmt.Errorf("gate %s on node 0: %w", w.classes[o.class], err))
			continue
		}
		got, err := queryAll(e.db, o.sql)
		if err != nil {
			errs = append(errs, fmt.Errorf("gate %s: %w", w.classes[o.class], err))
			continue
		}
		if err := sameResult(got, want.Rows, w.name != "wide_fetch"); err != nil {
			errs = append(errs, fmt.Errorf("gate %s: %w", w.classes[o.class], err))
		}
		if len(seen) == len(w.classes) {
			break
		}
	}
	return checked, errs
}

// wideOracle fills in the row count every wide_fetch op must return,
// from one per-key count on node 0.
func wideOracle(e *env, ops []op) error {
	res, err := node0(e.c).Query("select l_orderkey, count(*) from lineitem group by l_orderkey")
	if err != nil {
		return fmt.Errorf("wide_fetch oracle: %w", err)
	}
	prefix := make([]int, maxOrderKey()+2) // prefix[k] = rows with key < k
	for _, r := range res.Rows {
		if k := r[0].I; k >= 0 && k+1 < int64(len(prefix)) {
			prefix[k+1] = int(r[1].I)
		}
	}
	for k := 1; k < len(prefix); k++ {
		prefix[k] += prefix[k-1]
	}
	for i := range ops {
		ops[i].wantRows = prefix[ops[i].hi] - prefix[ops[i].lo]
	}
	return nil
}

// replicaState is what every replica must agree on once the refresh
// writer has stopped.
type replicaState struct {
	orders   int64
	total    float64
	leftover int64 // refresh keys still present
}

// checkReplicas verifies, after olap_refresh, that every replica reports
// the same orders count and price sum and that no refresh key remains.
func checkReplicas(c *apuama.Cluster) []error {
	_, nodes, _, _ := c.Internals()
	maxKey := maxOrderKey()
	var first replicaState
	var errs []error
	for i, nd := range nodes {
		var st replicaState
		res, err := nd.Query("select count(*), sum(o_totalprice) from orders")
		if err != nil {
			errs = append(errs, fmt.Errorf("replica %d: %w", i, err))
			continue
		}
		st.orders, st.total = res.Rows[0][0].I, res.Rows[0][1].F
		for _, q := range []string{
			fmt.Sprintf("select count(*) from orders where o_orderkey > %d", maxKey),
			fmt.Sprintf("select count(*) from lineitem where l_orderkey > %d", maxKey),
		} {
			res, err := nd.Query(q)
			if err != nil {
				errs = append(errs, fmt.Errorf("replica %d: %w", i, err))
				continue
			}
			st.leftover += res.Rows[0][0].I
		}
		if st.leftover != 0 {
			errs = append(errs, fmt.Errorf("replica %d: %d refresh rows remain", i, st.leftover))
		}
		if i == 0 {
			first = st
		} else if st.orders != first.orders || !sameValue(st.total, sqltypes.NewFloat(first.total)) {
			errs = append(errs, fmt.Errorf("replica %d: orders count/sum %d/%.2f, replica 0 has %d/%.2f",
				i, st.orders, st.total, first.orders, first.total))
		}
	}
	return errs
}
