package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// TestAVPEquivalenceAllQueries extends the equivalence oracle to the
// adaptive strategy: AVP must produce exactly the same results as a
// single-node execution for the full paper workload.
func TestAVPEquivalenceAllQueries(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = AVP
	for _, n := range []int{1, 3} {
		s := buildStack(t, n, opts)
		for _, qn := range tpch.QueryNumbers {
			text := tpch.MustQuery(qn)
			want := s.single(t, text)
			got, err := s.ctl.Query(text)
			if err != nil {
				t.Fatalf("n=%d Q%d: %v", n, qn, err)
			}
			assertSameResult(t, fmt.Sprintf("avp n=%d Q%d", n, qn), got, want, true)
		}
	}
}

// TestAVPDispatchesManySubQueries checks that AVP really processes each
// node's range in multiple chunks (that is the whole point of the
// strategy — and the source of the cache behaviour §6 criticizes).
func TestAVPDispatchesManySubQueries(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = AVP
	s := buildStack(t, 2, opts)
	if _, err := s.ctl.Query(tpch.MustQuery(6)); err != nil {
		t.Fatal(err)
	}
	st := s.eng.Snapshot()
	if st.SVPQueries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SubQueries <= 2 {
		t.Errorf("AVP issued only %d sub-queries; expected several chunks per node", st.SubQueries)
	}
}

// TestAVPWithUpdates: the consistency contract holds for AVP as well.
func TestAVPWithUpdates(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = AVP
	s := buildStack(t, 3, opts)
	if _, err := s.ctl.Exec("delete from lineitem where l_orderkey = 10"); err != nil {
		t.Fatal(err)
	}
	want := s.single(t, "select count(*) from lineitem")
	got, err := s.ctl.Query("select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "avp post-update", got, want, false)
}

func TestAVPChunkAdaptation(t *testing.T) {
	st := avpState{size: 100}
	// First measurement always grows.
	st.adapt(100, 10*time.Millisecond)
	if st.size != 200 {
		t.Fatalf("size after first chunk: %d", st.size)
	}
	// Rate holds: keep growing.
	st.adapt(200, 20*time.Millisecond)
	if st.size != 400 {
		t.Fatalf("size after steady rate: %d", st.size)
	}
	// Rate collapses: back off.
	st.adapt(400, 400*time.Millisecond)
	if st.size != 200 {
		t.Fatalf("size after degradation: %d", st.size)
	}
	// Degenerate timing must not divide by zero.
	st.adapt(10, 0)
	if st.size < 1 {
		t.Fatalf("size clamp: %d", st.size)
	}
}

// TestTemplateAddsRange: the sub-query template bounds every VP table
// reference by its own pair of placeholders, and SubQuery writes the same
// predicate with literals.
func TestTemplateAddsRange(t *testing.T) {
	stmt, err := sql.ParseSelect("select sum(l_quantity) from orders, lineitem where o_orderkey = l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := PlanSVP(stmt, TPCHCatalog())
	if err != nil {
		t.Fatal(err)
	}
	text := rw.template(0).SQL()
	for _, want := range []string{"o_orderkey >= $1", "o_orderkey < $2", "l_orderkey >= $3", "l_orderkey < $4"} {
		if !strings.Contains(text, want) {
			t.Errorf("template lacks %q: %s", want, text)
		}
	}
	if args := rw.appendRangeArgs(nil, 100, 200); len(args) != 4 || args[2].I != 100 || args[3].I != 200 {
		t.Errorf("appendRangeArgs(nil, 100, 200) = %v", args)
	}
	sub := rw.SubQuery(0, 1, 100, 199).SQL()
	if _, err := sql.ParseSelect(sub); err != nil {
		t.Fatalf("sub-query does not parse: %v\n%s", err, sub)
	}
	if want := strings.NewReplacer("$1", "100", "$2", "200", "$3", "100", "$4", "200").Replace(text); sub != want {
		t.Errorf("SubQuery is not the template with its arguments written in:\n%s\nwant\n%s", sub, want)
	}
}

func TestStrategyString(t *testing.T) {
	if SVP.String() != "SVP" || AVP.String() != "AVP" {
		t.Error("strategy names")
	}
}
