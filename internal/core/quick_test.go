package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Randomized SVP oracle: generate random aggregate queries over the fact
// tables (random aggregates, group keys, predicates, order/limit) and
// check that SVP over several nodes returns exactly the single-node
// answer. This complements the fixed TPC-H oracle with shapes the
// rewriter was not hand-tuned for.

type queryGen struct {
	r *rand.Rand
}

// numericCols and groupables restrict generation to columns where
// averages and sums are meaningful.
var (
	liNumeric   = []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"}
	liGroupable = []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_suppkey"}
	ordNumeric  = []string{"o_totalprice", "o_custkey", "o_shippriority"}
	ordGroup    = []string{"o_orderstatus", "o_orderpriority"}
)

func (g *queryGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// aggregate emits one random decomposable aggregate expression.
func (g *queryGen) aggregate(numeric []string) string {
	col := g.pick(numeric)
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("sum(%s)", col)
	case 1:
		return fmt.Sprintf("avg(%s)", col)
	case 2:
		return fmt.Sprintf("min(%s)", col)
	case 3:
		return fmt.Sprintf("max(%s)", col)
	case 4:
		return "count(*)"
	default:
		return fmt.Sprintf("sum(%s * (1 - l_discount))", col)
	}
}

// predicate emits a random sargable-or-not conjunct.
func (g *queryGen) predicate(table string) string {
	switch table {
	case "lineitem":
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("l_quantity < %d", g.r.Intn(50)+1)
		case 1:
			return fmt.Sprintf("l_discount between 0.0%d and 0.0%d", g.r.Intn(4), g.r.Intn(5)+4)
		case 2:
			return fmt.Sprintf("l_shipdate >= date '199%d-01-01'", 2+g.r.Intn(6))
		default:
			return fmt.Sprintf("l_orderkey > %d", g.r.Intn(1000))
		}
	default:
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("o_totalprice > %d", g.r.Intn(100000))
		case 1:
			return fmt.Sprintf("o_orderdate < date '199%d-06-01'", 3+g.r.Intn(5))
		default:
			return fmt.Sprintf("o_orderkey <= %d", 500+g.r.Intn(2500))
		}
	}
}

// generate builds one random aggregate query over lineitem or orders.
func (g *queryGen) generate() string {
	table := "lineitem"
	numeric, groupable := liNumeric, liGroupable
	if g.r.Intn(3) == 0 {
		table = "orders"
		numeric, groupable = ordNumeric, ordGroup
	}
	// lineitem-only expressions must not leak into orders queries.
	agg := g.aggregate(numeric)
	if table == "orders" {
		agg = strings.ReplaceAll(agg, " * (1 - l_discount)", "")
	}
	var b strings.Builder
	b.WriteString("select ")
	groups := 0
	if g.r.Intn(2) == 0 {
		groups = g.r.Intn(2) + 1
	}
	var groupCols []string
	used := map[string]bool{}
	for i := 0; i < groups; i++ {
		col := g.pick(groupable)
		if used[col] {
			continue
		}
		used[col] = true
		groupCols = append(groupCols, col)
	}
	for _, c := range groupCols {
		b.WriteString(c)
		b.WriteString(", ")
	}
	b.WriteString(agg)
	b.WriteString(" as v")
	if g.r.Intn(2) == 0 {
		b.WriteString(", ")
		second := g.aggregate(numeric)
		if table == "orders" {
			second = strings.ReplaceAll(second, " * (1 - l_discount)", "")
		}
		b.WriteString(second)
		b.WriteString(" as w")
	}
	b.WriteString(" from ")
	b.WriteString(table)
	if g.r.Intn(3) > 0 {
		b.WriteString(" where ")
		b.WriteString(g.predicate(table))
		if g.r.Intn(2) == 0 {
			b.WriteString(" and ")
			b.WriteString(g.predicate(table))
		}
	}
	if len(groupCols) > 0 {
		b.WriteString(" group by ")
		b.WriteString(strings.Join(groupCols, ", "))
		if g.r.Intn(3) == 0 {
			b.WriteString(" having count(*) > 1")
		}
		b.WriteString(" order by ")
		b.WriteString(strings.Join(groupCols, ", "))
		if g.r.Intn(3) == 0 {
			b.WriteString(fmt.Sprintf(" limit %d", g.r.Intn(5)+1))
		}
	}
	return b.String()
}

func TestSVPGeneratedQueriesProperty(t *testing.T) {
	s := buildStack(t, 3, DefaultOptions())
	g := &queryGen{r: rand.New(rand.NewSource(2024))}
	var passedBy int64 // trials routed to one node so far
	for trial := 0; trial < 60; trial++ {
		q := g.generate()
		want := s.single(t, q)
		got, err := s.ctl.Query(q)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, q)
		}
		assertSameResult(t, fmt.Sprintf("trial %d: %s", trial, q), got, want, true)
		// Every generated query targets a VP table: the engine must have
		// used intra-query parallelism, not silently fallen back — unless
		// its o_orderkey <= N bound meets one partition, which the route
		// passes through.
		st := s.eng.Snapshot()
		routed := st.FallbackReasons[ReasonOnePartition]
		for class := range st.FallbackReasons {
			if class != ReasonOnePartition {
				t.Fatalf("trial %d fell back: %v\n%s", trial, st.FallbackReasons, q)
			}
		}
		if st.SVPQueries+routed != int64(trial+1) {
			t.Fatalf("trial %d: %d SVP queries and %d routed, want %d in all\n%s", trial, st.SVPQueries, routed, trial+1, q)
		}
		if routed > passedBy && !strings.Contains(q, "o_orderkey <= ") {
			t.Fatalf("trial %d was routed to one node without a key bound that meets one partition\n%s", trial, q)
		}
		passedBy = routed
	}
}

// The generated-query oracle also holds for AVP.
func TestAVPGeneratedQueriesProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = AVP
	s := buildStack(t, 2, opts)
	g := &queryGen{r: rand.New(rand.NewSource(5))}
	for trial := 0; trial < 25; trial++ {
		q := g.generate()
		want := s.single(t, q)
		got, err := s.ctl.Query(q)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, q)
		}
		assertSameResult(t, fmt.Sprintf("avp trial %d: %s", trial, q), got, want, true)
	}
}
