package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"apuama/internal/obs"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// TestColumnarMatchesHeap is the engine-level differential sweep: every
// shape of the query sweep, executed with the segment store on, must
// reproduce the heap answer bit-for-bit.
func TestColumnarMatchesHeap(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	for _, sqlText := range sweepQueries {
		db.SetColumnar(false)
		want := queryAt(t, nd, sqlText, QueryOpts{})
		db.SetColumnar(true)
		got := queryAt(t, nd, sqlText, QueryOpts{})
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("columnar diverges from heap for %q:\ngot:\n%s\nwant:\n%s",
				sqlText, fingerprint(got), fingerprint(want))
		}
	}
	if _, _, scanned := nd.SegmentStats(); scanned == 0 {
		t.Fatal("no segments scanned: the sweep never took the columnar path")
	}
}

// TestColumnarPruningSkipsSegments: a clustered-key range too wide for
// the index path (selectivity > 0.2, so the heap side would full-scan)
// must engage zone-map pruning and still answer exactly.
func TestColumnarPruningSkipsSegments(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	sqlText := "select count(*), sum(price) from items where ok >= 300"
	db.SetColumnar(false)
	want := queryAt(t, nd, sqlText, QueryOpts{})
	db.SetColumnar(true)
	_, prunedBefore, _ := nd.SegmentStats()
	got := queryAt(t, nd, sqlText, QueryOpts{})
	_, prunedAfter, _ := nd.SegmentStats()
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("pruned scan diverges:\ngot:\n%s\nwant:\n%s", fingerprint(got), fingerprint(want))
	}
	if prunedAfter == prunedBefore {
		t.Fatal("no segments pruned on a leading-key range over a key-ordered relation")
	}
}

// TestColumnarUpdatesVisible interleaves deletes with columnar scans:
// every round must rebuild (or correctly reuse) the generation so the
// answer tracks the heap exactly.
func TestColumnarUpdatesVisible(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	sqlText := "select count(*), sum(price) from items"
	for round := 0; round < 5; round++ {
		if _, err := nd.Exec(fmt.Sprintf("delete from items where ok = %d", round*7+1)); err != nil {
			t.Fatal(err)
		}
		db.SetColumnar(false)
		want := queryAt(t, nd, sqlText, QueryOpts{})
		db.SetColumnar(true)
		got := queryAt(t, nd, sqlText, QueryOpts{})
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("round %d: columnar result stale after delete", round)
		}
	}
}

// TestColumnarExplain: EXPLAIN renders the columnar scan with its static
// zone-map pruning count.
func TestColumnarExplain(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	sqlText := "select count(*) from items where ok >= 300"
	// Execute once so a generation exists for EXPLAIN's static pruner.
	queryAt(t, nd, sqlText, QueryOpts{})
	res, err := nd.ExplainOpts(mustSelect(t, sqlText), QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, row := range res.Rows {
		plan.WriteString(row[0].S)
		plan.WriteByte('\n')
	}
	if !strings.Contains(plan.String(), "Columnar Seq Scan on items") {
		t.Fatalf("plan does not show the columnar scan:\n%s", plan.String())
	}
	m := regexp.MustCompile(`segments pruned (\d+)/(\d+)`).FindStringSubmatch(plan.String())
	if m == nil {
		t.Fatalf("plan does not show pruning counts:\n%s", plan.String())
	}
	pruned, _ := strconv.Atoi(m[1])
	total, _ := strconv.Atoi(m[2])
	if pruned == 0 || pruned >= total {
		t.Fatalf("static pruning %d/%d not in (0, total)", pruned, total)
	}
}

// TestColumnarSegmentMetricsConsistency: the node counters, the obs
// registry mirrors and the database bytes gauge must agree.
func TestColumnarSegmentMetricsConsistency(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	reg := obs.NewRegistry()
	nd.SetObs(reg)
	db.SetColumnar(true)
	for i := 0; i < 3; i++ {
		queryAt(t, nd, "select sum(price) from items where ok >= 300", QueryOpts{})
	}
	built, pruned, scanned := nd.SegmentStats()
	if built == 0 || pruned == 0 || scanned == 0 {
		t.Fatalf("segment stats %d/%d/%d: columnar path did not run", built, pruned, scanned)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.MEngineSegmentsBuilt, built},
		{obs.MEngineSegmentsPruned, pruned},
		{obs.MEngineSegmentsScanned, scanned},
	} {
		if got := reg.CounterValue(obs.Labeled(c.name, "node", "0")); got != c.want {
			t.Errorf("registry %s = %d, node reports %d", c.name, got, c.want)
		}
	}
	if db.SegmentBytes() <= 0 {
		t.Error("no resident segment bytes after columnar scans")
	}
	if got := reg.Gauge(obs.Labeled(obs.MStorageSegmentBytes, "node", "0")).Value(); got != db.SegmentBytes() {
		t.Errorf("registry gauge %d bytes, database reports %d", got, db.SegmentBytes())
	}
}

// zonePredTrue mirrors the row-level filter semantics of one prunable
// conjunct: NULL operands make the predicate NULL, which filterTrue
// rejects.
func zonePredTrue(c *zoneCheck, v sqltypes.Value) bool {
	if v.IsNull() {
		return false
	}
	if c.op == "between" {
		if c.lo.IsNull() || c.hi.IsNull() {
			return false
		}
		return sqltypes.Compare(v, c.lo) >= 0 && sqltypes.Compare(v, c.hi) <= 0
	}
	if c.v.IsNull() {
		return false
	}
	cmp := sqltypes.Compare(v, c.v)
	switch c.op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// fuzzValue maps a raw int64 onto a column value of the given kind; sel
// folds in NULLs (~1 in 8).
func fuzzValue(kind sqltypes.Kind, raw int64, sel uint8) sqltypes.Value {
	if sel%8 == 0 {
		return sqltypes.Null()
	}
	switch kind {
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(float64(raw%2000) / 4)
	case sqltypes.KindString:
		letters := "ABCDEFGH"
		u := uint64(raw)
		return sqltypes.NewString(strings.Repeat(string(letters[u%uint64(len(letters))]), int(u%3)+1))
	default:
		return sqltypes.NewInt(raw % 500)
	}
}

// FuzzZoneMapPrune is the safety fuzz for the pruning rules: over
// arbitrary single-column segments and arbitrary prunable predicates, a
// pruned segment must contain NO row the predicate accepts (pruning may
// only err toward keeping). It also cross-checks the ColVec encodings:
// every materialized value must round-trip through the vector.
func FuzzZoneMapPrune(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(64), int64(10), int64(50))
	f.Add(int64(2), uint8(1), uint8(3), uint16(7), int64(-3), int64(3))
	f.Add(int64(3), uint8(2), uint8(6), uint16(200), int64(0), int64(7))
	f.Add(int64(4), uint8(0), uint8(1), uint16(1), int64(499), int64(-499))
	f.Add(int64(5), uint8(1), uint8(5), uint16(33), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, opSel uint8, n uint16, c1, c2 int64) {
		kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString}
		kind := kinds[int(kindSel)%len(kinds)]
		ops := []string{"=", "<>", "<", "<=", ">", ">=", "between"}
		op := ops[int(opSel)%len(ops)]
		rows := make([]sqltypes.Row, int(n)%512+1)
		rng := rand.New(rand.NewSource(seed))
		for i := range rows {
			rows[i] = sqltypes.Row{fuzzValue(kind, rng.Int63n(1000)-500, uint8(rng.Intn(256)))}
		}
		vec := sqltypes.BuildColVec(kind, rows, 0)
		for i := range rows {
			got, want := vec.Value(i), rows[i][0]
			if got.IsNull() != want.IsNull() || (!got.IsNull() && sqltypes.Compare(got, want) != 0) {
				t.Fatalf("row %d: ColVec round-trip %v != %v", i, got, want)
			}
		}
		seg := &storage.Segment{Cols: []*sqltypes.ColVec{vec}}
		check := zoneCheck{col: 0, op: op}
		if op == "between" {
			check.lo = fuzzValue(kind, c1, uint8(c1))
			check.hi = fuzzValue(kind, c2, uint8(c2))
		} else {
			check.v = fuzzValue(kind, c1, uint8(c1))
		}
		if !check.prunes(seg) {
			return
		}
		for i := range rows {
			if zonePredTrue(&check, rows[i][0]) {
				t.Fatalf("pruned a segment containing qualifying row %d: %v %s %v/%v/%v (zone [%v, %v])",
					i, rows[i][0], op, check.v, check.lo, check.hi, vec.Min, vec.Max)
			}
		}
	})
}
