package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// tpchFingerprint serializes a result bit-exactly (floats by IEEE bit
// pattern): equal fingerprints mean bit-identical output.
func tpchFingerprint(res *engine.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			if v.K == sqltypes.KindFloat {
				fmt.Fprintf(&b, "f%016x|", math.Float64bits(v.F))
				continue
			}
			fmt.Fprintf(&b, "%v|", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// svpSubquery is template qn the way a node receives it from the SVP
// rewriter: seqscan off and a key range ANDed onto the fact tables.
func svpSubquery(qn int) string {
	bounds := map[int]string{
		1: "l_orderkey >= 2000 and l_orderkey < 9000", 6: "l_orderkey >= 2000 and l_orderkey < 9000",
		12: "l_orderkey >= 2000 and l_orderkey < 9000", 14: "l_orderkey >= 2000 and l_orderkey < 9000",
		3:  "l_orderkey >= 2000 and l_orderkey < 9000 and o_orderkey >= 2000 and o_orderkey < 9000",
		5:  "l_orderkey >= 2000 and l_orderkey < 9000 and o_orderkey >= 2000 and o_orderkey < 9000",
		4:  "o_orderkey >= 2000 and o_orderkey < 9000",
		21: "l1.l_orderkey >= 2000 and l1.l_orderkey < 9000 and o_orderkey >= 2000 and o_orderkey < 9000",
	}
	return strings.Replace(tpch.MustQuery(qn), "where ", "where "+bounds[qn]+" and ", 1)
}

// TestBatchBoundaries: the batch kernels gather, filter and fold a batch
// at a time, so a batch boundary must be invisible. Each of the eight
// templates' sub-queries, with its LIMIT and without one (or with one
// added), must return bit-identical rows and charge the modelled clock the identical amount at batch sizes 1, 7 and
// the default.
func TestBatchBoundaries(t *testing.T) {
	cfg := costmodel.Default()
	cfg.CachePages = 1 << 16 // the database fits: the pool's state is the same for every run
	db := engine.NewDatabase(cfg)
	nd, err := tpch.Generator{SF: 0.003, Seed: 1}.Load(db)
	if err != nil {
		t.Fatal(err)
	}
	nd.Set("enable_seqscan", sqltypes.NewBool(false))
	for _, qn := range tpch.QueryNumbers {
		text := svpSubquery(qn)
		other := text + "\nlimit 3"
		if i := strings.LastIndex(text, "\nlimit "); i >= 0 {
			other = text[:i]
		}
		for _, stmt := range []string{text, other} {
			sel, err := sql.ParseSelect(stmt)
			if err != nil {
				t.Fatalf("Q%d: %v", qn, err)
			}
			run := func(batch int) (string, int64) {
				before := nd.Meter().Virtual()
				res, err := nd.QueryStmtAt(sel, nd.Watermark(), engine.QueryOpts{BatchSize: batch})
				if err != nil {
					t.Fatalf("Q%d batch %d: %v", qn, batch, err)
				}
				return tpchFingerprint(res), int64(nd.Meter().Virtual() - before)
			}
			run(0) // warm the buffer pool
			wantRows, wantCharge := run(0)
			if wantRows == "" {
				t.Fatalf("Q%d: empty result", qn)
			}
			for _, batch := range []int{1, 7} {
				rows, charge := run(batch)
				label := fmt.Sprintf("Q%d (limit: %v) batch size %d", qn, strings.Contains(stmt, "\nlimit "), batch)
				if rows != wantRows {
					t.Errorf("%s: rows differ from the default batch size\n%s\nvs\n%s", label, rows, wantRows)
				}
				if charge != wantCharge {
					t.Errorf("%s: modelled charge %d ns, %d at the default batch size", label, charge, wantCharge)
				}
			}
		}
	}
}
