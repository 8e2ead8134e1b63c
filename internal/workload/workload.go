// Package workload drives TPC-H workloads against a cluster the way the
// paper's experiments do: isolated query timings (five runs, first
// dropped, mean reported), concurrent read-only query sequences, and
// mixed read + refresh workloads.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/tpch"
)

// Session is anything that can execute statements: the public Cluster,
// a wire client, or a bare controller.
type Session interface {
	Query(sqlText string) (*engine.Result, error)
	Exec(sqlText string) (int64, error)
}

// Prepared is one replayable read statement: parsed, canonicalized and
// fingerprinted exactly once at Prepare time, so replay loops submit it
// over and over without re-doing any of that work per iteration.
type Prepared struct {
	// Text is the canonical rendering (round-trip stable): every
	// submission of this statement is byte-identical, so server-side
	// result caches key it consistently.
	Text string
	// FP is the statement's stable identity — the same fingerprint the
	// result cache in internal/cache keys on.
	FP sql.Fingerprint
	// Stmt is the parsed canonical plan.
	Stmt *sql.SelectStmt
}

// Prepare parses, canonicalizes and fingerprints each query text once.
// A malformed query fails here, not once per replay iteration.
func Prepare(texts ...string) ([]Prepared, error) {
	ps := make([]Prepared, 0, len(texts))
	for i, text := range texts {
		sel, err := sql.ParseSelect(text)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		canon := sql.CanonicalSelect(sel)
		ps = append(ps, Prepared{
			Text: canon.SQL(),
			FP:   sql.FingerprintStmt(canon),
			Stmt: canon,
		})
	}
	return ps, nil
}

// Replay submits every prepared statement rounds times, in order. The
// per-iteration cost is one Session.Query — parsing, canonicalization
// and fingerprinting were paid once in Prepare (see BenchmarkReplay*
// for the delta against re-preparing per iteration).
func Replay(sess Session, ps []Prepared, rounds int) (StreamReport, error) {
	var report StreamReport
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for i := range ps {
			qStart := time.Now()
			res, err := sess.Query(ps[i].Text)
			res.Release() // only the timing is kept
			if err != nil {
				report.Elapsed = time.Since(start)
				return report, fmt.Errorf("round %d query %d: %w", round, i, err)
			}
			report.Queries++
			report.Durations = append(report.Durations, time.Since(qStart))
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// IsolatedTiming measures one query the way the paper does: repeats
// executions, drops the first (cold) run and returns the mean of the
// rest. All individual runs are returned for inspection. The query is
// prepared once up front — a parse failure surfaces immediately and the
// timed loop replays the prepared text.
func IsolatedTiming(sess Session, sqlText string, repeats int) (mean time.Duration, runs []time.Duration, err error) {
	if repeats < 2 {
		repeats = 2
	}
	ps, err := Prepare(sqlText)
	if err != nil {
		return 0, nil, err
	}
	runs = make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		res, err := sess.Query(ps[0].Text)
		res.Release()
		if err != nil {
			return 0, nil, fmt.Errorf("run %d: %w", i, err)
		}
		runs = append(runs, time.Since(start))
	}
	var total time.Duration
	for _, d := range runs[1:] {
		total += d
	}
	return total / time.Duration(len(runs)-1), runs, nil
}

// StreamReport summarizes one sequence-execution experiment.
type StreamReport struct {
	Queries   int           // read queries completed
	Elapsed   time.Duration // wall time until every stream finished
	Durations []time.Duration
}

// QPM returns throughput in queries per minute.
func (r StreamReport) QPM() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Minutes()
}

// Percentile returns the p-th percentile (0 < p <= 100) of per-query
// latency, or 0 with no samples.
func (r StreamReport) Percentile(p float64) time.Duration {
	if len(r.Durations) == 0 {
		return 0
	}
	ds := append([]time.Duration(nil), r.Durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(p/100*float64(len(ds)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx]
}

// RunStreams executes `streams` concurrent TPC-H query sequences. Each
// stream submits the eight workload queries in its own permutation with
// fresh random parameters, one at a time (the next query is submitted
// after the previous completes — the paper's simulated decision-making
// user). It returns when every stream has finished.
func RunStreams(sess Session, streams int, seed int64) (StreamReport, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		report   StreamReport
		firstErr error
	)
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(stream)*7919))
			for _, qn := range tpch.Sequence(stream) {
				text, err := tpch.RandomQuery(qn, r)
				if err == nil {
					qStart := time.Now()
					var res *engine.Result
					res, err = sess.Query(text)
					res.Release()
					if err == nil {
						mu.Lock()
						report.Queries++
						report.Durations = append(report.Durations, time.Since(qStart))
						mu.Unlock()
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("stream %d Q%d: %w", stream, qn, err)
					}
					mu.Unlock()
					return
				}
			}
		}(s)
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	return report, firstErr
}

// MixedReport extends StreamReport with update-side measurements.
type MixedReport struct {
	StreamReport
	Updates       int
	UpdateElapsed time.Duration
}

// RunMixed executes read streams concurrently with one update sequence
// (the paper's §5 mixed workload: RF1 inserts then RF2 deletes, each
// statement an update transaction through the middleware). It returns
// when the read streams AND the update sequence have both completed.
func RunMixed(sess Session, readStreams int, seed int64, updates []string) (MixedReport, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rep      MixedReport
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		uStart := time.Now()
		for i, stmt := range updates {
			if _, err := sess.Exec(stmt); err != nil {
				fail(fmt.Errorf("update %d: %w", i, err))
				return
			}
			mu.Lock()
			rep.Updates++
			mu.Unlock()
		}
		mu.Lock()
		rep.UpdateElapsed = time.Since(uStart)
		mu.Unlock()
	}()
	for s := 0; s < readStreams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(stream)*104729))
			for _, qn := range tpch.Sequence(stream) {
				text, err := tpch.RandomQuery(qn, r)
				if err == nil {
					qStart := time.Now()
					var res *engine.Result
					res, err = sess.Query(text)
					res.Release()
					if err == nil {
						mu.Lock()
						rep.Queries++
						rep.Durations = append(rep.Durations, time.Since(qStart))
						mu.Unlock()
					}
				}
				if err != nil {
					fail(fmt.Errorf("stream %d Q%d: %w", stream, qn, err))
					return
				}
			}
		}(s)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep, firstErr
}
