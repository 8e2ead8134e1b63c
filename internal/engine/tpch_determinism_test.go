package engine_test

import (
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// TestParallelTPCHDeterminism is the acceptance determinism run: TPC-H Q1
// and Q6 executed 100 times must be bit-identical run to run, whatever
// QueryOpts.Parallelism asks for — a query runs serially on the goroutine
// that opens it, so neither the request nor the scheduler reaches a
// result bit.
func TestParallelTPCHDeterminism(t *testing.T) {
	db := engine.NewDatabase(costmodel.TestConfig())
	nd, err := tpch.Generator{SF: 0.002, Seed: 1}.Load(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, qn := range []int{1, 6} {
		sel, err := sql.ParseSelect(tpch.MustQuery(qn))
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		wm := nd.Watermark()
		run := func(degree int) string {
			res, err := nd.QueryStmtAt(sel, wm, engine.QueryOpts{Parallelism: degree})
			if err != nil {
				t.Fatalf("Q%d: %v", qn, err)
			}
			return tpchFingerprint(res)
		}
		first := run(0)
		if first == "" {
			t.Fatalf("Q%d: empty result", qn)
		}
		for i := 1; i < 100; i++ {
			if fp := run(i % 5); fp != first {
				t.Fatalf("Q%d run %d (Parallelism %d) diverged:\n%s\nvs first run:\n%s", qn, i, i%5, fp, first)
			}
		}
	}
	if q, m, s := nd.ParallelStats(); q != 0 || m != 0 || s != 0 {
		t.Fatalf("ParallelStats = (%d, %d, %d), want all 0", q, m, s)
	}
}
