package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"apuama/internal/admission"
	"apuama/internal/cache"
	"apuama/internal/engine"
	"apuama/internal/sqltypes"
	"apuama/internal/tpch"
)

// bitFingerprint serializes a result bit-exactly (floats by their IEEE
// bit pattern): equal fingerprints mean bit-identical output, safe to
// compare from concurrent goroutines.
func bitFingerprint(res *engine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Cols)
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

// mqoOptions is the full MQO deployment: columnar store (shared scans
// ride the segment path), result cache (sub-plan flights and the
// partial layer live there), and a short batching window.
func mqoOptions() Options {
	opts := DefaultOptions()
	opts.Columnar = true
	opts.MQO = true
	opts.Admission.BatchWindow = time.Millisecond
	opts.Cache = cache.Config{Entries: 256, MaxBytes: 32 << 20}
	return opts
}

// TestOracleMQOEquivalence is the MQO differential oracle: for every
// SVP-eligible TPC-H query, the answer with shared scans and sub-plan
// sharing on must be BIT-identical to the answer with them off — same
// row order, same float bits — across node counts.
// The unshared run is the reference (itself ULP-checked against a
// single node by TestOracleSVPEquivalence), so any divergence pins the
// blame on the sharing layer: coordinator delivery, mid-scan attach
// bookkeeping, or a flight substituting the wrong partition rows.
func TestOracleMQOEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		opts := mqoOptions()
		opts.MQO = false
		off := buildStack(t, n, opts)
		opts.MQO = true
		on := buildStack(t, n, opts)
		for _, qn := range tpch.QueryNumbers {
			label := fmt.Sprintf("n=%d Q%d", n, qn)
			want, err := off.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s unshared: %v", label, err)
			}
			got, err := on.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s shared: %v", label, err)
			}
			assertBitIdentical(t, label, got, want)
			assertRowsULP(t, label+" vs single", got, on.single(t, tpch.MustQuery(qn)))
		}
		st := on.eng.Snapshot()
		if st.SharedScanAttaches == 0 {
			t.Errorf("n=%d: no shared-scan attaches — the MQO path never engaged", n)
		}
	}
}

// TestOracleMQOUnderWrites interleaves committed deletes with the
// shared/unshared comparison: every round bumps the write epoch, so
// coordinators must key to the new snapshot and flights to the new
// epoch, never serving a consumer rows from the previous database
// state.
func TestOracleMQOUnderWrites(t *testing.T) {
	opts := mqoOptions()
	opts.MQO = false
	off := buildStack(t, 4, opts)
	opts.MQO = true
	on := buildStack(t, 4, opts)
	queries := []int{1, 6}
	for round := 0; round < 5; round++ {
		del := fmt.Sprintf("delete from lineitem where l_orderkey = %d", round*7+1)
		for _, s := range []*stack{off, on} {
			if _, err := s.ctl.Exec(del); err != nil {
				t.Fatalf("round %d: %s: %v", round, del, err)
			}
		}
		for _, qn := range queries {
			label := fmt.Sprintf("round=%d Q%d", round, qn)
			want, err := off.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s unshared: %v", label, err)
			}
			got, err := on.ctl.Query(tpch.MustQuery(qn))
			if err != nil {
				t.Fatalf("%s shared: %v", label, err)
			}
			assertBitIdentical(t, label, got, want)
			assertRowsULP(t, label+" vs single", got, on.single(t, tpch.MustQuery(qn)))
		}
	}
}

// TestMQOConcurrentOverlapCollapses drives a concurrent burst of
// syntactic variants (conjunct order, comparison orientation) of the
// same sub-plans: every answer must be bit-identical to its solo run,
// and the burst must demonstrably share work — partition flights joined
// or partial sub-plan hits across differently-spelled parents.
func TestMQOConcurrentOverlapCollapses(t *testing.T) {
	s := buildStack(t, 2, mqoOptions())
	variants := []string{
		"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_quantity < 24 and l_discount between 0.05 and 0.07",
		"select sum(l_extendedprice * l_discount) as revenue from lineitem where 24 > l_quantity and l_discount between 0.05 and 0.07",
		"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_discount between 0.05 and 0.07 and l_quantity < 24",
		"select sum(l_extendedprice * l_discount) as revenue from lineitem where l_discount between 0.05 and 0.07 and 24 > l_quantity",
	}
	// Solo references first, on a separate unshared deployment.
	refOpts := mqoOptions()
	refOpts.MQO = false
	ref := buildStack(t, 2, refOpts)
	want := make([]string, len(variants))
	for i, q := range variants {
		res, err := ref.ctl.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[i] = bitFingerprint(res)
	}
	for round := 0; round < 3; round++ {
		var (
			wg      sync.WaitGroup
			release = make(chan struct{})
			got     = make([]string, len(variants))
			errs    = make([]error, len(variants))
		)
		for i, q := range variants {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				<-release
				res, err := s.ctl.Query(q)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = bitFingerprint(res)
			}(i, q)
		}
		close(release)
		wg.Wait()
		for i := range variants {
			if errs[i] != nil {
				t.Fatalf("round %d variant %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("round %d variant %q diverged from solo reference", round, variants[i])
			}
		}
		// Keep the next round cold.
		if _, err := s.ctl.Exec(fmt.Sprintf("delete from lineitem where l_orderkey = %d", round*3+2)); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ctl.Exec(fmt.Sprintf("delete from lineitem where l_orderkey = %d", round*3+2)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.eng.Snapshot()
	if st.CachePartialShares+st.CachePartialHits == 0 {
		t.Errorf("no partition flights joined and no partial hits: sub-plan sharing never collapsed the variants (stats %+v)", st)
	}
}

// TestChaosMQONodeDeathWithConsumers kills and revives a node while
// concurrent MQO queries hold shared-scan consumers attached on it:
// queries either fail over and answer exactly or fail transiently, a
// write issued after the storm must commit (no stranded write gate),
// and every scan coordinator must be retired once the system drains.
func TestChaosMQONodeDeathWithConsumers(t *testing.T) {
	s := buildStack(t, 4, mqoOptions())
	text := "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_discount between 0.05 and 0.07"
	wantRes, err := s.ctl.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	want := bitFingerprint(wantRes)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := s.eng.Procs()[i%3+1]
			p.Kill()
			time.Sleep(2 * time.Millisecond)
			p.Revive()
			i++
		}
	}()

	var mu sync.Mutex
	okReads, failedReads := 0, 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := s.ctl.QueryContext(ctx, text)
				cancel()
				mu.Lock()
				if err != nil {
					failedReads++
					mu.Unlock()
					if errors.Is(err, ErrNotEligible) {
						t.Errorf("unexpected ineligibility: %v", err)
						return
					}
					continue
				}
				okReads++
				mu.Unlock()
				if got := bitFingerprint(res); got != want {
					t.Errorf("read %d diverged during chaos", i)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if okReads == 0 {
		t.Fatalf("no read succeeded during chaos (%d failed)", failedReads)
	}

	// No stranded write gate: a write right after the storm must commit.
	writeDone := make(chan error, 1)
	go func() {
		_, err := s.ctl.Exec("delete from lineitem where l_orderkey = 5")
		writeDone <- err
	}()
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("post-chaos write failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("post-chaos write hung: a dead consumer stranded the write path")
	}

	// Every coordinator must have been retired by the detaches.
	for i, nd := range s.nodes {
		if !nd.SharedScanIdle() {
			t.Errorf("node %d still has scan coordinators registered after drain", i)
		}
	}
}

// TestMQOOffMatchesDefaults: MQO off must leave the engine's defaulted
// options exactly at their PR-9 values — no admission batching window,
// no columnar/plan changes — so -mqo=0 deployments are plan-for-plan
// identical to builds predating this feature.
func TestMQOOffMatchesDefaults(t *testing.T) {
	for _, window := range []time.Duration{0, 5 * time.Millisecond} {
		off := Options{Admission: admission.Config{BatchWindow: window}}.withDefaults()
		if off.Admission.BatchWindow != 0 || off.Admission.Enabled() {
			t.Fatalf("MQO off kept window %v as Admission.BatchWindow = %v, want 0", window, off.Admission.BatchWindow)
		}
	}
	if on := (Options{MQO: true}).withDefaults(); on.Admission.BatchWindow != 3*time.Millisecond {
		t.Fatalf("MQO on defaulted Admission.BatchWindow = %v, want 3ms", on.Admission.BatchWindow)
	}
	set := Options{MQO: true, Admission: admission.Config{BatchWindow: 5 * time.Millisecond}}.withDefaults()
	if set.Admission.BatchWindow != 5*time.Millisecond {
		t.Fatalf("MQO on replaced a set window: Admission.BatchWindow = %v, want 5ms", set.Admission.BatchWindow)
	}
}
