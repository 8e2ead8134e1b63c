package core

import (
	"testing"

	"apuama/internal/fault"
	"apuama/internal/tpch"
)

// Fine-grained AVP × cache interaction regressions. The partial-result
// cache keys each entry by its key range, and the scheduler derives
// ranges from the CONFIGURED node count — never from how many nodes
// happen to be live or which node executed the partition. These tests
// pin that contract: a liveness change must not shift the ranges (and
// thereby silently invalidate a warm cache), and a mid-query crash must
// re-queue exactly the orphaned partitions, exactly once.

// TestPartialCacheStableAcrossNodeDeath: warm the partial cache with
// all nodes live, kill one, and re-run at the same snapshot. Every
// fine partition must still hit the partial cache — zero sub-queries
// dispatched — because the ranges are a pure function of (configured
// nodes, granularity, key domain), not of cluster liveness.
func TestPartialCacheStableAcrossNodeDeath(t *testing.T) {
	opts := cacheOptions()
	opts.AVPGranularity = 2 // 8 fine partitions across 4 configured nodes
	s := buildStack(t, 4, opts)
	text := tpch.MustQuery(1)
	cold, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	s.eng.Cache().DropResults() // force recompose from partial entries
	s.eng.Procs()[1].Kill()
	before := s.eng.Snapshot()
	warm, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	after := s.eng.Snapshot()
	if got := after.CachePartialHits - before.CachePartialHits; got != 8 {
		t.Errorf("partial hits after node death: %d, want 8 (ranges shifted with liveness?)", got)
	}
	if after.SubQueries != before.SubQueries {
		t.Errorf("degraded warm run dispatched %d sub-queries, want 0", after.SubQueries-before.SubQueries)
	}
	assertBitIdentical(t, "degraded recompose", warm, cold)
}

// TestMidQueryCrashRequeuesOnce: a node does the work for its claimed
// partition and then dies before replying. The orphaned partition must
// go back on the shared queue exactly once, a survivor must re-run it,
// and the composed answer must stay exact — the partial attempt's
// batches are discarded by the attempt-tagged gather, so nothing is
// dropped or double counted.
func TestMidQueryCrashRequeuesOnce(t *testing.T) {
	opts := DefaultOptions()
	opts.AVPGranularity = 4 // 8 fine partitions across 2 nodes
	s := buildStack(t, 2, opts)
	want := s.single(t, tpch.MustQuery(6))
	s.eng.Procs()[1].InjectFaults(fault.New(11).CrashMidQueryAt(1, 0))
	got, err := s.ctl.Query(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-crash Q6", got, want, false)
	st := s.eng.Snapshot()
	if st.AVPRequeues != 1 {
		t.Errorf("orphaned partition requeued %d times, want exactly 1", st.AVPRequeues)
	}
	if st.SubQueryRetries != 1 {
		t.Errorf("sub-query retries: %d, want 1", st.SubQueryRetries)
	}
	// 8 partitions claimed once each, plus one re-execution of the
	// orphaned partition on the survivor — and nothing more.
	if st.SubQueries != 9 {
		t.Errorf("sub-queries: %d, want 9", st.SubQueries)
	}
}

// TestFinePartsResolution pins the granularity-resolution rules the
// cache keys and the oracle sweep rely on.
func TestFinePartsResolution(t *testing.T) {
	mk := func(n, g int, strat Strategy) *Engine {
		opts := DefaultOptions()
		opts.AVPGranularity = g
		opts.Strategy = strat
		return &Engine{procs: make([]*NodeProcessor, n), opts: opts}
	}
	cases := []struct {
		name string
		e    *Engine
		span int64
		want int
	}{
		{"explicit coarse", mk(4, 1, SVP), 1 << 20, 4},
		{"explicit fine", mk(4, 64, SVP), 1 << 20, 256},
		{"explicit clamped to span", mk(4, 64, SVP), 10, 10},
		{"explicit never below nodes", mk(4, 2, SVP), 3, 4},
		{"auto AVP targets 32 per node", mk(4, 0, AVP), 1 << 20, 128},
		{"auto SVP small span stays coarse", mk(4, 0, SVP), 3000, 4},
		{"auto SVP single node stays coarse", mk(1, 0, SVP), 1 << 20, 1},
		{"auto SVP wide span goes fine", mk(4, 0, SVP), 1 << 20, 128},
		{"auto SVP width floor", mk(2, 0, SVP), 16 * avpMinPartKeys, 16},
	}
	for _, c := range cases {
		if got := c.e.fineParts(c.span); got != c.want {
			t.Errorf("%s: fineParts(%d) = %d, want %d", c.name, c.span, got, c.want)
		}
	}
}
