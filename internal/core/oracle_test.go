package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"apuama/internal/engine"
	"apuama/internal/fault"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// Differential oracle: for every SVP-eligible TPC-H query, the
// n-partition SVP answer must equal the single-node answer row for row,
// at n ∈ {1, 2, 4, 8}. The reference
// node attaches at the cluster's replication watermark, so both sides
// read the same snapshot of the same deterministic (seeded) dataset —
// any divergence is a decomposition, rewrite or composition bug.
//
// Float tolerance: SVP composes per-partition partial aggregates, so
// float additions happen in a different order than a single-node scan
// (float addition is not associative). The comparison is therefore in
// ULPs (units in the last place): oracleMaxULP = 1<<22 corresponds to
// ~1e-9 relative error — the same tolerance the repository's existing
// equivalence tests use, but scale-correct across the value range.
// Near-zero values are compared with an absolute epsilon instead,
// because catastrophic cancellation can leave two "zero" results many
// ULPs apart (e.g. 1e-18 vs -1e-18 differ by ~2^63 ULPs).
const (
	oracleMaxULP  = uint64(1) << 22
	oracleZeroEps = 1e-9
)

// ulpDiff returns the number of representable float64 values between a
// and b. Adjacent floats differ by 1; equal floats by 0. Opposite-sign
// values are measured through zero.
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	// Map the float bit pattern onto a monotonic integer line:
	// negatives are reflected so ordering matches numeric order.
	ord := func(f float64) int64 {
		bits := int64(math.Float64bits(f))
		if bits < 0 {
			bits = math.MinInt64 - bits
		}
		return bits
	}
	oa, ob := ord(a), ord(b)
	if oa > ob {
		oa, ob = ob, oa
	}
	return uint64(ob - oa)
}

// assertRowsULP compares two results after canonical row sort, exact
// for non-floats and within oracleMaxULP for floats.
func assertRowsULP(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	g := append([]sqltypes.Row(nil), got.Rows...)
	w := append([]sqltypes.Row(nil), want.Rows...)
	sortRows(g)
	sortRows(w)
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
				if math.Abs(af) < oracleZeroEps && math.Abs(bf) < oracleZeroEps {
					continue
				}
				if d := ulpDiff(af, bf); d > oracleMaxULP {
					t.Fatalf("%s row %d col %d: %v vs %v (%d ULPs apart, max %d)",
						label, i, c, a, b, d, oracleMaxULP)
				}
				continue
			}
			if sqltypes.Compare(a, b) != 0 {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a, b)
			}
		}
	}
}

// TestOracleSVPEquivalence is the differential oracle over the full
// SVP-eligible query set × partition counts.
func TestOracleSVPEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		opts := DefaultOptions()
		s := buildStack(t, n, opts)
		for _, qn := range tpch.QueryNumbers {
			label := fmt.Sprintf("n=%d Q%d", n, qn)
			text := tpch.MustQuery(qn)
			want := s.single(t, text)
			got, err := s.ctl.Query(text)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertRowsULP(t, label, got, want)
		}
		// Every query must have gone through SVP, not a silent
		// pass-through fallback that would make the oracle vacuous.
		st := s.eng.Snapshot()
		if st.SVPQueries != int64(len(tpch.QueryNumbers)) {
			t.Errorf("n=%d: %d SVP queries, want %d (fallbacks: %v)",
				n, st.SVPQueries, len(tpch.QueryNumbers), st.FallbackReasons)
		}
	}
}

// TestOracleGranularitySweep extends the oracle across the fine-grained
// scheduler's configuration space: granularity ∈ {1, 4, 32, 64} ×
// nodes ∈ {1, 2, 4, 8}, each verified against the
// single-node reference. granularity=1 is the legacy coarse split;
// higher values multiply the partition count per configured node, so
// this sweeps the shared-queue dispatch from "no stealing possible"
// to "hundreds of micro-partitions". Q1 (wide float aggregates, the
// composition-order-sensitive shape) and Q6 (selective range filter)
// keep the sweep affordable; the full query set is covered at auto
// granularity by TestOracleSVPEquivalence above.
func TestOracleGranularitySweep(t *testing.T) {
	for _, g := range []int{1, 4, 32, 64} {
		for _, n := range []int{1, 2, 4, 8} {
			opts := DefaultOptions()
			opts.AVPGranularity = g
			s := buildStack(t, n, opts)
			queries := []int{1, 6}
			for _, qn := range queries {
				label := fmt.Sprintf("g=%d n=%d Q%d", g, n, qn)
				text := tpch.MustQuery(qn)
				want := s.single(t, text)
				got, err := s.ctl.Query(text)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertRowsULP(t, label, got, want)
			}
			if st := s.eng.Snapshot(); st.SVPQueries != int64(len(queries)) {
				t.Errorf("g=%d n=%d: %d SVP queries, want %d (fallbacks: %v)",
					g, n, st.SVPQueries, len(queries), st.FallbackReasons)
			}
		}
	}
}

// TestOracleRepeatedRunsBitIdentical proves merge order is
// schedule-independent: with seeded random per-statement delays on
// every node, 100 repeated runs of the same query take different
// claim/steal/completion orders through the shared partition queue,
// yet every run must compose to the bit-identical result (same row
// order, same float bits) — the determinism contract that makes the
// partial-result cache and the differential oracle trustworthy.
func TestOracleRepeatedRunsBitIdentical(t *testing.T) {
	const runs = 100
	opts := DefaultOptions()
	opts.AVPGranularity = 32 // 128 partitions across 4 nodes
	s := buildStack(t, 4, opts)
	for i, p := range s.eng.Procs() {
		p.InjectFaults(fault.New(int64(7+i)).Slow(50*time.Microsecond, 0).Jitter(3.0))
	}
	text := tpch.MustQuery(6)
	want := s.single(t, text)
	var first *engine.Result
	for i := 0; i < runs; i++ {
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first == nil {
			first = got
			assertRowsULP(t, "run 0 vs reference", got, want)
			continue
		}
		assertBitIdentical(t, fmt.Sprintf("run %d vs run 0", i), got, first)
	}
	// The schedules must actually have differed: with randomized
	// delays across 100 runs, work stealing is statistically certain.
	if st := s.eng.Snapshot(); st.AVPSteals == 0 {
		t.Errorf("no steals across %d jittered runs — schedules never diverged", runs)
	}
}

// TestOracleSVPEquivalenceUnderWrites re-runs the oracle for one
// partition count with writes interleaved between queries: the
// consistency barrier must keep the n-partition answer equal to a
// fresh single-node answer after every update round.
func TestOracleSVPEquivalenceUnderWrites(t *testing.T) {
	s := buildStack(t, 4, DefaultOptions())
	for round, qn := range tpch.QueryNumbers {
		del := fmt.Sprintf("delete from orders where o_orderkey = %d", round*7+1)
		if _, err := s.ctl.Exec(del); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		text := tpch.MustQuery(qn)
		want := s.single(t, text)
		got, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("round %d Q%d: %v", round, qn, err)
		}
		assertRowsULP(t, fmt.Sprintf("round %d Q%d", round, qn), got, want)
	}
}
