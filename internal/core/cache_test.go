package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/obs"
	"apuama/internal/tpch"
)

// cacheOptions returns engine options with the result cache enabled at
// test-friendly sizes.
func cacheOptions() Options {
	opts := DefaultOptions()
	opts.Cache = cache.Config{Entries: 64, MaxBytes: 16 << 20}
	return opts
}

// assertBitIdentical requires got and want to be exactly equal — same
// column names, same row order, same bits in every value. A cache hit
// must reproduce the cold result perfectly, not merely within float
// tolerance.
func assertBitIdentical(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d cols, want %d", label, len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: col %d %q vs %q", label, i, got.Cols[i], want.Cols[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for c := range got.Rows[i] {
			if got.Rows[i][c] != want.Rows[i][c] {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}

// TestWarmCacheSkipsDispatch is the headline acceptance criterion:
// repeated Q1/Q6 on a warm cache are served without dispatching a
// single sub-query.
func TestWarmCacheSkipsDispatch(t *testing.T) {
	s := buildStack(t, 4, cacheOptions())
	for _, qn := range []int{1, 6} {
		text := tpch.MustQuery(qn)
		cold, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("Q%d cold: %v", qn, err)
		}
		before := s.eng.Snapshot()
		warm, err := s.ctl.Query(text)
		if err != nil {
			t.Fatalf("Q%d warm: %v", qn, err)
		}
		after := s.eng.Snapshot()
		if after.CacheHits != before.CacheHits+1 {
			t.Errorf("Q%d: cache hits %d -> %d, want +1", qn, before.CacheHits, after.CacheHits)
		}
		if after.SubQueries != before.SubQueries {
			t.Errorf("Q%d: warm run dispatched %d sub-queries", qn, after.SubQueries-before.SubQueries)
		}
		if after.SVPQueries != before.SVPQueries {
			t.Errorf("Q%d: warm run executed the plan", qn)
		}
		assertBitIdentical(t, fmt.Sprintf("Q%d warm", qn), warm, cold)
	}
}

// TestWriteInvalidatesCache: any committed write bumps the cluster
// epoch, so the next identical query misses and recomputes a correct
// fresh answer.
func TestWriteInvalidatesCache(t *testing.T) {
	s := buildStack(t, 4, cacheOptions())
	text := tpch.MustQuery(6)
	if _, err := s.ctl.Query(text); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ctl.Exec("delete from lineitem where l_orderkey = 1"); err != nil {
		t.Fatal(err)
	}
	before := s.eng.Snapshot()
	got, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	after := s.eng.Snapshot()
	if after.CacheMisses != before.CacheMisses+1 {
		t.Errorf("expected a miss after the write: misses %d -> %d", before.CacheMisses, after.CacheMisses)
	}
	if after.CacheHits != before.CacheHits {
		t.Errorf("stale entry served after a write")
	}
	assertRowsULP(t, "post-write recompute", got, s.single(t, text))
}

// TestSingleflightSharesExecution: 8 concurrent identical cold queries
// execute the plan exactly once; everyone receives the same correct
// result.
func TestSingleflightSharesExecution(t *testing.T) {
	s := buildStack(t, 4, cacheOptions())
	text := tpch.MustQuery(6)
	want := s.single(t, text)

	const callers = 8
	var (
		wg      sync.WaitGroup
		release = make(chan struct{})
		results = make([]*engine.Result, callers)
		errs    = make([]error, callers)
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-release
			results[g], errs[g] = s.ctl.Query(text)
		}(g)
	}
	close(release)
	wg.Wait()

	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		assertRowsULP(t, fmt.Sprintf("caller %d", g), results[g], want)
	}
	st := s.eng.Snapshot()
	if st.SVPQueries != 1 {
		t.Errorf("plan executed %d times, want 1 (shared %d, hits %d, misses %d)",
			st.SVPQueries, st.CacheShared, st.CacheHits, st.CacheMisses)
	}
	// Every caller either led, shared the in-flight execution, or found
	// the fill via the double-checked lookup; none re-ran the plan.
	if st.CacheShared+st.CacheHits+st.CacheMisses < callers {
		t.Errorf("accounting hole: shared %d + hits %d + misses %d < %d callers",
			st.CacheShared, st.CacheHits, st.CacheMisses, callers)
	}
}

// TestPartialCacheServesPartitions: dropping only the composed-result
// layer forces a full re-execution, but every partition comes out of
// the partial cache — zero sub-queries dispatched.
func TestPartialCacheServesPartitions(t *testing.T) {
	const n = 4
	s := buildStack(t, n, cacheOptions())
	text := tpch.MustQuery(1)
	cold, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	s.eng.Cache().DropResults()
	before := s.eng.Snapshot()
	warm, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	after := s.eng.Snapshot()
	if after.CacheMisses != before.CacheMisses+1 {
		t.Errorf("expected a full-result miss after DropResults")
	}
	if got := after.CachePartialHits - before.CachePartialHits; got != n {
		t.Errorf("partial hits: %d, want %d", got, n)
	}
	if after.SubQueries != before.SubQueries {
		t.Errorf("partial-warm run dispatched %d sub-queries", after.SubQueries-before.SubQueries)
	}
	assertRowsULP(t, "partial-cache recompose", warm, cold)
}

// TestNoCacheControlBypasses: a query carrying NoCache neither reads
// nor is served from the cache.
func TestNoCacheControlBypasses(t *testing.T) {
	s := buildStack(t, 2, cacheOptions())
	text := tpch.MustQuery(6)
	if _, err := s.ctl.Query(text); err != nil {
		t.Fatal(err)
	}
	before := s.eng.Snapshot()
	ctx := cache.WithControl(context.Background(), cache.Control{NoCache: true})
	if _, err := s.ctl.QueryContext(ctx, text); err != nil {
		t.Fatal(err)
	}
	after := s.eng.Snapshot()
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Errorf("NoCache query touched the cache: hits %d->%d misses %d->%d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
	if after.SVPQueries != before.SVPQueries+1 {
		t.Errorf("NoCache query did not execute the plan")
	}
}

// TestMaxStaleEpochsServesBehindHead: with an explicit staleness
// allowance the pre-write entry is served (bit-identical to the result
// cached before the write); without it the same query misses.
func TestMaxStaleEpochsServesBehindHead(t *testing.T) {
	s := buildStack(t, 2, cacheOptions())
	text := tpch.MustQuery(6)
	cold, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ctl.Exec("delete from lineitem where l_orderkey = 3"); err != nil {
		t.Fatal(err)
	}
	before := s.eng.Snapshot()
	ctx := cache.WithControl(context.Background(), cache.Control{MaxStaleEpochs: 16})
	stale, err := s.ctl.QueryContext(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	after := s.eng.Snapshot()
	if after.CacheStaleHits != before.CacheStaleHits+1 {
		t.Errorf("stale hits %d -> %d, want +1", before.CacheStaleHits, after.CacheStaleHits)
	}
	assertBitIdentical(t, "stale serve", stale, cold)

	// The same query without the allowance must recompute.
	fresh, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	final := s.eng.Snapshot()
	if final.CacheMisses != after.CacheMisses+1 {
		t.Errorf("strict query should have missed")
	}
	assertRowsULP(t, "fresh recompute", fresh, s.single(t, text))
}

// TestCacheMetricsMirrored: the engine's cache counters surface under
// the canonical metric names when a registry is attached.
func TestCacheMetricsMirrored(t *testing.T) {
	opts := cacheOptions()
	reg := obs.NewRegistry()
	s := buildStackMetrics(t, 2, opts, reg)
	text := tpch.MustQuery(6)
	for i := 0; i < 2; i++ {
		if _, err := s.ctl.Query(text); err != nil {
			t.Fatal(err)
		}
	}
	st := s.eng.Snapshot()
	if st.CacheHits < 1 || st.CacheMisses < 1 {
		t.Fatalf("hits %d misses %d", st.CacheHits, st.CacheMisses)
	}
	if got := reg.Counter(obs.MCacheHits).Value(); got != st.CacheHits {
		t.Errorf("%s = %d, engine counter %d", obs.MCacheHits, got, st.CacheHits)
	}
	if got := reg.Counter(obs.MCacheMisses).Value(); got != st.CacheMisses {
		t.Errorf("%s = %d, engine counter %d", obs.MCacheMisses, got, st.CacheMisses)
	}
	if got := reg.Counter(obs.MCacheFills).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", obs.MCacheFills, got)
	}
	if got := reg.Gauge(obs.MCacheEntries).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", obs.MCacheEntries, got)
	}
	// Every apuama_cache_* counter must agree with its engine Snapshot
	// mirror — the flight/partial family included, so dashboards built
	// on either source never diverge.
	for _, pair := range []struct {
		name string
		snap int64
	}{
		{obs.MCacheHits, st.CacheHits},
		{obs.MCacheMisses, st.CacheMisses},
		{obs.MCacheFills, st.CacheFills},
		{obs.MCacheEvictions, st.CacheEvictions},
		{obs.MCacheExpired, st.CacheExpired},
		{obs.MCacheShared, st.CacheShared},
		{obs.MCacheFlightCancels, st.CacheFlightCancels},
		{obs.MCachePartialHits, st.CachePartialHits},
		{obs.MCachePartialFills, st.CachePartialFills},
		{obs.MCachePartialShares, st.CachePartialShares},
	} {
		if got := reg.Counter(pair.name).Value(); got != pair.snap {
			t.Errorf("parity: %s = %d, engine snapshot mirror %d", pair.name, got, pair.snap)
		}
	}
}
