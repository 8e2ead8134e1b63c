package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"apuama/internal/cache"
)

// The MQO study runs a fixed 64-client burst: 16 constant families
// (distinct predicates, so nothing collapses to a plain cache hit) ×
// 4 syntactic variants per family (conjunct order × comparison
// orientation — distinct texts that canonicalize to one sub-plan).
const (
	mqoNodes    = 2
	mqoClients  = 64
	mqoFamilies = 16
	mqoBursts   = 3
)

// mqoQuery renders client i's query: family i/4 picks the constants,
// variant i%4 picks the surface syntax. All four variants of a family
// are semantically identical, so MQO's canonical sub-plan fingerprint
// collapses them; across families only the cooperative shared scan can
// collapse the physical work.
func mqoQuery(family, variant int) string {
	q := 5 + family
	c1 := fmt.Sprintf("l_quantity < %d", q)
	if variant&1 != 0 {
		c1 = fmt.Sprintf("%d > l_quantity", q)
	}
	c2 := "l_discount between 0.03 and 0.07"
	where := c1 + " and " + c2
	if variant&2 != 0 {
		where = c2 + " and " + c1
	}
	return "select sum(l_extendedprice * l_discount) as revenue from lineitem where " + where
}

// MQOExperiment measures multi-query optimization under concurrency:
// 64 concurrent distinct-but-overlapping clients (the workload above),
// repeated for several bursts with an epoch-bumping write in between so
// the result cache never absorbs a burst. Both sides run the columnar
// store with the result cache on; only -mqo differs.
//
// Reported per side: goodput (queries/minute across all bursts) and
// scans-per-query — physical segment scans divided by (segments × a
// full logical scan per query). Two hard gates, failing the run when
// unmet: shared goodput must be ≥ 2× unshared, and shared
// scans-per-query must be < 1.0 (each query costs less than one
// physical scan — the definition of the work actually being shared).
// Every query's result must additionally be bit-identical across the
// two sides.
func MQOExperiment(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("mqo", fmt.Sprintf("multi-query optimization: %d overlapping clients, %d nodes", mqoClients, mqoNodes),
		"q/min | scans/query", []int{0, 1}, []string{"q_per_min", "scans_per_query"})
	fig.RowLabel = "mqo"
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d constant families x 4 syntactic variants; %d bursts with an epoch-bumping write between bursts", mqoFamilies, mqoBursts),
		"both sides run columnar + result cache; only MQO differs",
	)

	base := cfg
	base.Engine.Columnar = true
	base.Engine.Cache = cache.Config{Entries: 512, MaxBytes: 64 << 20}

	type sideResult struct {
		qpm      float64
		scansPer float64
		results  map[[2]int]string // (burst, client) -> rendered rows
		attaches int64
		delivers int64
		shares   int64
	}

	runSide := func(mqo bool) (*sideResult, error) {
		sideCfg := base
		sideCfg.Engine.MQO = mqo
		s, err := buildStack(mqoNodes, sideCfg)
		if err != nil {
			return nil, err
		}
		// Warm up once (builds the columnar segments), then flush the
		// cache so burst 1 starts cold like every later burst.
		if _, err := s.Query(mqoQuery(0, 0)); err != nil {
			return nil, err
		}
		s.eng.Cache().DropAll()
		rel, err := s.db.Relation("lineitem")
		if err != nil {
			return nil, err
		}
		set := rel.LoadedSegments()
		if set == nil || len(set.Segments) == 0 {
			return nil, fmt.Errorf("mqo: no columnar segments built for lineitem")
		}
		nSegs := len(set.Segments)

		out := &sideResult{results: map[[2]int]string{}}
		before := s.eng.Snapshot()
		start := time.Now()
		for burst := 0; burst < mqoBursts; burst++ {
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				release = make(chan struct{})
				firstE  error
			)
			for c := 0; c < mqoClients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-release
					res, err := s.Query(mqoQuery(c/4, c%4))
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if firstE == nil {
							firstE = err
						}
						return
					}
					out.results[[2]int{burst, c}] = fmt.Sprintf("%v", res.Rows)
				}(c)
			}
			close(release)
			wg.Wait()
			if firstE != nil {
				return nil, fmt.Errorf("mqo burst %d: %w", burst, firstE)
			}
			// Bump the epoch so the next burst misses the result cache
			// (and the partial/flight layers key to a fresh snapshot).
			if _, err := s.Exec(fmt.Sprintf("delete from lineitem where l_orderkey = %d", burst+1)); err != nil {
				return nil, fmt.Errorf("mqo burst %d write: %w", burst, err)
			}
		}
		wall := time.Since(start)
		after := s.eng.Snapshot()

		total := float64(mqoClients * mqoBursts)
		out.qpm = total / wall.Minutes()
		out.scansPer = float64(after.SegmentsScanned-before.SegmentsScanned) / float64(nSegs) / total
		out.attaches = after.SharedScanAttaches - before.SharedScanAttaches
		out.delivers = after.SharedScanDeliveries - before.SharedScanDeliveries
		out.shares = after.CachePartialShares - before.CachePartialShares
		return out, nil
	}

	unshared, err := runSide(false)
	if err != nil {
		return nil, fmt.Errorf("mqo unshared: %w", err)
	}
	progress(w, "mqo unshared  %8.1f q/min  %6.3f scans/query", unshared.qpm, unshared.scansPer)
	shared, err := runSide(true)
	if err != nil {
		return nil, fmt.Errorf("mqo shared: %w", err)
	}
	progress(w, "mqo shared    %8.1f q/min  %6.3f scans/query  (attaches %d, deliveries %d, flight shares %d)",
		shared.qpm, shared.scansPer, shared.attaches, shared.delivers, shared.shares)

	// Bit-identity: every (burst, client) answer must match across sides.
	for burst := 0; burst < mqoBursts; burst++ {
		for c := 0; c < mqoClients; c++ {
			k := [2]int{burst, c}
			if unshared.results[k] != shared.results[k] {
				return nil, fmt.Errorf("mqo: burst %d client %d diverged: unshared %s vs shared %s",
					burst, c, unshared.results[k], shared.results[k])
			}
		}
	}

	fig.Values[0] = []float64{unshared.qpm, unshared.scansPer}
	fig.Values[1] = []float64{shared.qpm, shared.scansPer}
	speedup := 0.0
	if unshared.qpm > 0 {
		speedup = shared.qpm / unshared.qpm
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("goodput speedup %.2fx; shared-scan attaches %d, deliveries %d, partition flight shares %d",
			speedup, shared.attaches, shared.delivers, shared.shares),
		"all answers bit-identical across shared/unshared")

	// Hard gates.
	if speedup < 2.0 {
		return nil, fmt.Errorf("mqo gate: shared goodput %.1f q/min is only %.2fx unshared %.1f q/min (need >= 2x)",
			shared.qpm, speedup, unshared.qpm)
	}
	if shared.scansPer >= 1.0 {
		return nil, fmt.Errorf("mqo gate: shared scans-per-query %.3f (need < 1.0)", shared.scansPer)
	}
	return fig, nil
}
