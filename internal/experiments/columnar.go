package experiments

import (
	"fmt"
	"io"

	"apuama/internal/core"
	"apuama/internal/tpch"
	"apuama/internal/workload"
)

// columnarNodes pins the columnar study to a single node: the segment
// store is an intra-node scan-path change, so cluster fan-out would only
// dilute the comparison.
const columnarNodes = 1

// columnarSelFraction is the key-domain fraction the "Q6-shaped
// selective scan" row covers: Q6's predicates plus an l_orderkey range
// over the leading ~30% of the domain. lineitem is loaded in
// (l_orderkey, l_linenumber) order, so segment zone maps on l_orderkey
// are tight and the range prunes the trailing ~70% of segments — the
// shape where columnar scanning pays. Raw Q1/Q6 filter on physically
// uncorrelated columns (l_shipdate), so their rows show the no-pruning
// floor: near-identical cost to the heap path.
const columnarSelFraction = 0.3

// q6Shaped returns Q6's validation-parameter predicates restricted to
// the leading fraction of the l_orderkey domain [lo, hi].
func q6Shaped(lo, hi int64) string {
	cut := lo + int64(float64(hi-lo+1)*columnarSelFraction)
	return fmt.Sprintf(`select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_orderkey >= %d and l_orderkey < %d
	and l_shipdate >= date '1994-01-01'
	and l_shipdate < date '1994-01-01' + interval '1' year
	and l_discount between 0.06 - 0.01 and 0.06 + 0.01
	and l_quantity < 24`, lo, cut)
}

// ColumnarExperiment compares the heap scan path against the columnar
// segment store on identical single-node deployments: Q1 (near-full
// scan), Q6 (selective but physically uncorrelated filter) and the
// Q6-shaped selective scan (clustered-key-correlated range). Each row
// reports rows/second through both paths, the speedup ratio, and the
// fraction of segments the zone maps pruned. Both stacks allow
// sequential scans and use the coarse one-partition split, so the
// planner sees the whole key domain and picks a full scan on the heap
// side — the comparison the segment store is designed to win.
//
// The q6sel row is the acceptance gate: it must prune segments (the
// run fails otherwise) — a zero pruned count means zone-map pruning
// never engaged and the speedup would be noise.
func ColumnarExperiment(cfg Config, w io.Writer) (*Figure, error) {
	rows := []struct {
		id    int
		label string
	}{
		{1, "Q1"},
		{6, "Q6"},
		{60, "Q6-shaped selective"},
	}
	rowIDs := make([]int, len(rows))
	for i, r := range rows {
		rowIDs[i] = r.id
	}
	fig := newFigure("columnar", fmt.Sprintf("columnar segment store vs heap, %d node", columnarNodes),
		"rows/s | rows/s | x | fraction", rowIDs,
		[]string{"heap_rows_s", "col_rows_s", "speedup_x", "pruned_ratio"})
	fig.RowLabel = "query"
	fig.Notes = append(fig.Notes,
		"row 60 is the Q6-shaped selective scan: Q6 predicates plus an l_orderkey range over the leading ~30% of the key domain",
		"both sides allow sequential scans and use the coarse one-partition split; only -columnar differs",
		"pruned_ratio is segments pruned / (pruned + scanned) across the columnar side's timed runs")

	base := cfg
	base.Engine.AllowSeqscan = true
	base.Engine.AVPGranularity = 1

	heapCfg := base
	heapCfg.Engine.Columnar = false
	colCfg := base
	colCfg.Engine.Columnar = true

	hs, err := buildStack(columnarNodes, heapCfg)
	if err != nil {
		return nil, err
	}
	cs, err := buildStack(columnarNodes, colCfg)
	if err != nil {
		return nil, err
	}
	lineRel, err := hs.db.Relation("lineitem")
	if err != nil {
		return nil, err
	}
	lineRows := float64(lineRel.LiveRows())
	lo, hi, err := core.TPCHCatalog().KeyDomain(hs.db, "lineitem")
	if err != nil {
		return nil, err
	}

	for r, q := range rows {
		var text string
		if q.id == 60 {
			text = q6Shaped(lo, hi)
		} else {
			text = tpch.MustQuery(q.id)
		}
		heapMean, _, err := workload.IsolatedTiming(hs, text, cfg.Repeats)
		if err != nil {
			return nil, fmt.Errorf("columnar %s heap: %w", q.label, err)
		}
		before := cs.eng.Snapshot()
		colMean, _, err := workload.IsolatedTiming(cs, text, cfg.Repeats)
		if err != nil {
			return nil, fmt.Errorf("columnar %s columnar: %w", q.label, err)
		}
		after := cs.eng.Snapshot()
		pruned := after.SegmentsPruned - before.SegmentsPruned
		scanned := after.SegmentsScanned - before.SegmentsScanned
		var ratio float64
		if pruned+scanned > 0 {
			ratio = float64(pruned) / float64(pruned+scanned)
		}
		if heapMean > 0 {
			fig.Values[r][0] = lineRows / heapMean.Seconds()
		}
		if colMean > 0 {
			fig.Values[r][1] = lineRows / colMean.Seconds()
		}
		if colMean > 0 {
			fig.Values[r][2] = float64(heapMean) / float64(colMean)
		}
		fig.Values[r][3] = ratio
		progress(w, "columnar %-20s heap %8.3fs col %8.3fs speedup %5.2fx pruned %d/%d",
			q.label, heapMean.Seconds(), colMean.Seconds(), fig.Values[r][2], pruned, pruned+scanned)
		if q.id == 60 && pruned == 0 {
			return nil, fmt.Errorf("columnar %s: zone-map pruning never engaged (0 segments pruned)", q.label)
		}
	}
	return fig, nil
}
