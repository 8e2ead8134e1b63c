package core

import (
	"fmt"
	"testing"

	"apuama/internal/tpch"
)

// TestOracleColumnarEquivalence is the columnar differential oracle:
// for every SVP-eligible TPC-H query, the answer with the segment store
// on must be BIT-identical to the answer with it off — same row order,
// same float bits — across node counts. The heap run
// is the reference (it is itself ULP-checked against a single node by
// TestOracleSVPEquivalence), so any divergence pins the blame on the
// columnar scan: segment coverage, visibility stamping, zone-map
// pruning or morsel skipping.
//
// Bit-identity (not ULP tolerance) is the right bar because a columnar
// scan visits the same rows in the same physical order as the heap scan
// it replaces; only pruned work disappears, never reordered work.
func TestOracleColumnarEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		opts := DefaultOptions()
		s := buildStack(t, n, opts)
		for _, qn := range tpch.QueryNumbers {
			label := fmt.Sprintf("n=%d Q%d", n, qn)
			s.db.SetColumnar(false)
			want, err := s.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s heap: %v", label, err)
			}
			s.db.SetColumnar(true)
			got, err := s.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s columnar: %v", label, err)
			}
			assertBitIdentical(t, label, got, want)
			// And both agree with a standalone reference node, up to
			// composition float rounding.
			assertRowsULP(t, label+" vs single", got, s.single(t, tpch.MustQuery(qn)))
		}
		st := s.eng.Snapshot()
		// Neither side may have fallen out of SVP...
		if want := 2 * int64(len(tpch.QueryNumbers)); st.SVPQueries != want {
			t.Errorf("n=%d: %d SVP queries, want %d (fallbacks: %v)",
				n, st.SVPQueries, want, st.FallbackReasons)
		}
		// ...and the columnar runs must actually have scanned
		// segments, or the oracle is vacuous.
		if st.SegmentsScanned == 0 {
			t.Errorf("n=%d: no segments scanned — columnar path never engaged", n)
		}
	}
}

// TestOracleColumnarUnderWrites interleaves committed deletes with the
// columnar/heap comparison: every round bumps the write epoch on the
// touched relations, so each columnar query must rebuild (or provably
// reuse) its segment generations to keep tracking the heap exactly.
func TestOracleColumnarUnderWrites(t *testing.T) {
	opts := DefaultOptions()
	s := buildStack(t, 4, opts)
	queries := []int{1, 6}
	for round := 0; round < 5; round++ {
		for _, del := range []string{
			fmt.Sprintf("delete from lineitem where l_orderkey = %d", round*7+1),
			fmt.Sprintf("delete from orders where o_orderkey = %d", round*7+1),
		} {
			if _, err := s.ctl.Exec(del); err != nil {
				t.Fatalf("round %d: %s: %v", round, del, err)
			}
		}
		for _, qn := range queries {
			label := fmt.Sprintf("round=%d Q%d", round, qn)
			s.db.SetColumnar(false)
			want, err := s.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s heap: %v", label, err)
			}
			s.db.SetColumnar(true)
			got, err := s.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s columnar: %v", label, err)
			}
			assertBitIdentical(t, label, got, want)
			assertRowsULP(t, label+" vs single", got, s.single(t, tpch.MustQuery(qn)))
		}
	}
	st := s.eng.Snapshot()
	if st.SegmentsScanned == 0 {
		t.Error("no segments scanned — columnar path never engaged under writes")
	}
	if st.SegmentsBuilt < 2 {
		t.Errorf("segments built only %d times — epoch invalidation never forced a rebuild", st.SegmentsBuilt)
	}
}

// TestSVPSubqueryScansSegments: with Columnar on, an SVP sub-query — a
// clustered-key range planned with sequential scans off — is served by
// the segment store. Every node claims at least its first home partition,
// so each node's segment counter must move.
func TestSVPSubqueryScansSegments(t *testing.T) {
	opts := DefaultOptions()
	opts.Columnar = true
	s := buildStack(t, 4, opts)
	if _, err := s.ctl.Query(tpch.MustQuery(6)); err != nil {
		t.Fatal(err)
	}
	if st := s.eng.Snapshot(); st.SVPQueries != 1 {
		t.Fatalf("Q6 ran through %d SVP queries, want 1 (fallbacks: %v)", st.SVPQueries, st.FallbackReasons)
	}
	for i, nd := range s.nodes {
		if _, _, scanned := nd.SegmentStats(); scanned == 0 {
			t.Errorf("node %d: its sub-queries scanned no segment", i)
		}
	}
}
