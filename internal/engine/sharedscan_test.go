package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// rowsFingerprint serializes rows bit-exactly (floats by IEEE bit
// pattern), like fingerprint does for a Result.
func rowsFingerprint(rows []sqltypes.Row) string {
	var b strings.Builder
	for _, row := range rows {
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

// drainShared opens o, pulls every row through batches of batchSize,
// and closes it.
func drainShared(t *testing.T, ex *execCtx, o op, batchSize int) []sqltypes.Row {
	t.Helper()
	if err := o.open(ex); err != nil {
		t.Fatalf("open: %v", err)
	}
	defer o.close()
	var rows []sqltypes.Row
	for {
		b := sqltypes.NewBatch(batchSize)
		if err := o.next(ex, b); err != nil {
			t.Fatalf("next: %v", err)
		}
		if b.Len() == 0 {
			return rows
		}
		rows = append(rows, b.Rows...)
	}
}

// TestSharedScanMatchesSolo is the MQO differential sweep: every shape
// of the query sweep answered with shared scans on must
// reproduce the solo answer bit-for-bit, and the sweep must actually
// attach consumers to coordinators.
func TestSharedScanMatchesSolo(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	for _, sqlText := range sweepQueries {
		db.SetMQO(false)
		want := queryAt(t, nd, sqlText, QueryOpts{})
		db.SetMQO(true)
		got := queryAt(t, nd, sqlText, QueryOpts{})
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("shared scan diverges from solo for %q:\ngot:\n%s\nwant:\n%s",
				sqlText, fingerprint(got), fingerprint(want))
		}
	}
	attached, scans, _ := nd.SharedScanStats()
	if attached == 0 || scans == 0 {
		t.Fatalf("sweep never exercised the shared path: %d attaches, %d driver scans", attached, scans)
	}
	if !nd.SharedScanIdle() {
		t.Fatal("coordinators still registered after every query closed")
	}
}

// TestSharedScanCoAttachedConsumersShareOnePass pins the sharing
// arithmetic deterministically: N consumers attached before any of them
// drains (so co-attachment does not depend on goroutine timing) must be
// served by exactly ONE physical pass — each segment scanned once,
// delivered N times — while each consumer still emits the solo scan's
// rows bit-for-bit. The drains run concurrently to exercise the
// rotating-driver protocol under -race.
func TestSharedScanCoAttachedConsumersShareOnePass(t *testing.T) {
	const consumers = 4
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	db.SetMQO(true)
	rel, err := db.Relation("items")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := nd.Watermark()
	solo := rowsFingerprint(drainShared(t, &execCtx{node: nd, snapshot: snapshot, meter: nd.meter},
		&colScanOp{rel: rel, fallback: &seqScanOp{rel: rel}}, 64))

	scans0, deliv0 := func() (int64, int64) { _, s, d := nd.SharedScanStats(); return s, d }()
	ops := make([]*sharedScanOp, consumers)
	exs := make([]*execCtx, consumers)
	for i := range ops {
		exs[i] = &execCtx{node: nd, snapshot: snapshot, meter: nd.meter}
		ops[i] = &sharedScanOp{rel: rel, fallback: &colScanOp{rel: rel, fallback: &seqScanOp{rel: rel}}}
		if err := ops[i].open(exs[i]); err != nil {
			t.Fatal(err)
		}
		if ops[i].usingFallback {
			t.Fatalf("consumer %d fell back to a private scan", i)
		}
	}
	nSegs := len(ops[0].need)
	var wg sync.WaitGroup
	got := make([]string, consumers)
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows []sqltypes.Row
			for {
				b := sqltypes.NewBatch(64)
				if err := ops[i].next(exs[i], b); err != nil {
					got[i] = "error: " + err.Error()
					return
				}
				if b.Len() == 0 {
					got[i] = rowsFingerprint(rows)
					return
				}
				rows = append(rows, b.Rows...)
			}
		}(i)
	}
	wg.Wait()
	for i := range ops {
		ops[i].close()
		if got[i] != solo {
			t.Errorf("co-attached consumer %d diverges from the solo scan", i)
		}
	}
	_, scans, deliv := nd.SharedScanStats()
	if scans-scans0 != int64(nSegs) {
		t.Errorf("%d driver scans for %d segments, want exactly one pass", scans-scans0, nSegs)
	}
	if deliv-deliv0 != int64(consumers*nSegs) {
		t.Errorf("%d deliveries, want %d (every segment to every consumer)", deliv-deliv0, consumers*nSegs)
	}
	if !nd.SharedScanIdle() {
		t.Fatal("coordinator survived all detaches")
	}
}

// TestSharedScanConcurrentConsumers runs overlapping filtered
// aggregates concurrently with MQO on through the full query path:
// every answer must match its solo (MQO off) run bit-for-bit however
// the consumers happen to interleave. Run under -race by the mqo suite
// (the sharing arithmetic itself is pinned deterministically by
// TestSharedScanCoAttachedConsumersShareOnePass).
func TestSharedScanConcurrentConsumers(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = fmt.Sprintf("select count(*), sum(price) from items where qty < %d", i+2)
	}
	db.SetMQO(false)
	want := make([]string, len(texts))
	stmts := make([]*sql.SelectStmt, len(texts))
	for i, q := range texts {
		want[i] = fingerprint(queryAt(t, nd, q, QueryOpts{}))
		stmts[i] = mustSelect(t, q)
	}
	db.SetMQO(true)
	const rounds = 5
	for round := 0; round < rounds; round++ {
		var (
			wg      sync.WaitGroup
			release = make(chan struct{})
			got     = make([]string, len(texts))
			errs    = make([]error, len(texts))
		)
		for i := range texts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-release
				res, err := nd.QueryStmtAt(stmts[i], nd.Watermark(), QueryOpts{})
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = fingerprint(res)
			}(i)
		}
		close(release)
		wg.Wait()
		for i := range texts {
			if errs[i] != nil {
				t.Fatalf("round %d query %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("round %d query %q diverged under concurrent shared scan:\ngot:\n%s\nwant:\n%s",
					round, texts[i], got[i], want[i])
			}
		}
	}
	// Sharing volume is timing-dependent at this level (fast queries may
	// not overlap); the deterministic sharing arithmetic lives in
	// TestSharedScanCoAttachedConsumersShareOnePass. Here only hygiene:
	if !nd.SharedScanIdle() {
		t.Fatal("coordinators still registered after all queries closed")
	}
}

// TestSharedScanMidScanAttach is the attach-after-k-morsels regression:
// consumer A scans part of the relation alone, then B attaches
// mid-pass. B joins at the current cursor, is owed the already-passed
// range when the circular pass wraps, and must still emit exactly the
// solo scan's rows in the solo scan's order.
func TestSharedScanMidScanAttach(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	db.SetMQO(true)
	rel, err := db.Relation("items")
	if err != nil {
		t.Fatal(err)
	}
	snapshot := nd.Watermark()

	solo := drainShared(t, &execCtx{node: nd, snapshot: snapshot, meter: nd.meter},
		&colScanOp{rel: rel, fallback: &seqScanOp{rel: rel}}, 64)

	exA := &execCtx{node: nd, snapshot: snapshot, meter: nd.meter}
	a := &sharedScanOp{rel: rel, fallback: &colScanOp{rel: rel, fallback: &seqScanOp{rel: rel}}}
	if err := a.open(exA); err != nil {
		t.Fatal(err)
	}
	if a.usingFallback {
		t.Fatal("consumer A fell back to a private scan; the test needs the shared path")
	}
	// A alone drives a few segments past the coordinator's cursor.
	var aRows []sqltypes.Row
	for i := 0; i < 3; i++ {
		b := sqltypes.NewBatch(64)
		if err := a.next(exA, b); err != nil {
			t.Fatal(err)
		}
		aRows = append(aRows, b.Rows...)
	}
	a.co.mu.Lock()
	cursor := a.co.cursor
	a.co.mu.Unlock()
	if cursor == 0 {
		t.Fatal("consumer A never advanced the coordinator cursor; attach would not be mid-scan")
	}

	// B attaches mid-pass on the same coordinator.
	exB := &execCtx{node: nd, snapshot: snapshot, meter: nd.meter}
	bOp := &sharedScanOp{rel: rel, fallback: &colScanOp{rel: rel, fallback: &seqScanOp{rel: rel}}}
	if err := bOp.open(exB); err != nil {
		t.Fatal(err)
	}
	if bOp.co != a.co {
		t.Fatal("consumer B attached to a different coordinator")
	}
	bRows := func() []sqltypes.Row {
		defer bOp.close()
		var rows []sqltypes.Row
		for {
			b := sqltypes.NewBatch(64)
			if err := bOp.next(exB, b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				return rows
			}
			rows = append(rows, b.Rows...)
		}
	}()
	// Finish draining A too, then close it.
	for {
		b := sqltypes.NewBatch(64)
		if err := a.next(exA, b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		aRows = append(aRows, b.Rows...)
	}
	a.close()

	if got, want := rowsFingerprint(bRows), rowsFingerprint(solo); got != want {
		t.Fatalf("mid-scan attacher diverges from solo scan:\ngot %d rows\nwant %d rows", len(bRows), len(solo))
	}
	if got, want := rowsFingerprint(aRows), rowsFingerprint(solo); got != want {
		t.Fatalf("original consumer diverges from solo scan after sharing with an attacher")
	}
	if !nd.SharedScanIdle() {
		t.Fatal("coordinator survived both detaches")
	}
}

// TestSharedScanExplain: the plan renderer names the shared operator
// and its static pruning, and MQO off keeps the solo operator.
func TestSharedScanExplain(t *testing.T) {
	db, nd := newItemsDB(t, 500, 3)
	db.SetColumnar(true)
	queryAt(t, nd, "select count(*) from items", QueryOpts{}) // build segments
	db.SetMQO(true)
	stmt := mustSelect(t, "select count(*), sum(price) from items where qty < 2")
	res, err := nd.ExplainOpts(stmt, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	plan := fingerprint(res)
	if !strings.Contains(plan, "Shared Columnar Scan on items") {
		t.Fatalf("MQO plan does not show the shared scan:\n%s", plan)
	}
	db.SetMQO(false)
	res, err = nd.ExplainOpts(stmt, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := fingerprint(res); strings.Contains(plan, "Shared Columnar Scan") {
		t.Fatalf("MQO off still plans a shared scan:\n%s", plan)
	}
}
