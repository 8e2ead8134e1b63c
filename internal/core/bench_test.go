package core

import (
	"fmt"
	"testing"

	"apuama/internal/sql"
	"apuama/internal/tpch"
)

func BenchmarkPlanSVP(b *testing.B) {
	cat := TPCHCatalog()
	for _, qn := range []int{1, 6, 21} {
		stmt, err := sql.ParseSelect(tpch.MustQuery(qn))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%d", qn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PlanSVP(stmt, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSubQueryInstantiation(b *testing.B) {
	stmt, err := sql.ParseSelect(tpch.MustQuery(1))
	if err != nil {
		b.Fatal(err)
	}
	rw, err := PlanSVP(stmt, TPCHCatalog())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := rw.SubQuery(i%32, 32, 1, 6_000_000)
		_ = sub.SQL()
	}
}

func BenchmarkBarrier(b *testing.B) {
	// Barrier cost on an idle, consistent cluster: the fast path every
	// read-only SVP query pays.
	s := buildStackB(b, 8)
	stmt := "select count(*) from lineitem where l_orderkey < 0" // empty partitions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ctl.Query(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComposeQ3 times Q3, the composition-heavy template (many
// groups re-aggregated in memdb), end to end on four nodes.
func BenchmarkComposeQ3(b *testing.B) {
	s := buildStackOptsB(b, 4, DefaultOptions())
	q := tpch.MustQuery(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ctl.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
