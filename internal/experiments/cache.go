package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"apuama/internal/cache"
	"apuama/internal/tpch"
)

// cacheConfig sizes the result cache for the experiment: large enough
// that the working set (eight queries × a handful of epochs) never
// evicts mid-run.
func cacheConfig() cache.Config {
	return cache.Config{Entries: 256, MaxBytes: 64 << 20}
}

// CacheExperiment measures what the result cache buys on a repeated
// workload: per-query latency cold (every query executes the plan),
// warm (every query is a cache hit), and shared (8 concurrent identical
// cold queries riding one in-flight execution). Values are mean seconds
// per query.
func CacheExperiment(cfg Config, w io.Writer) (*Figure, error) {
	const fanIn = 8
	fig := newFigure("cache", "result cache: cold vs warm vs shared-concurrent",
		"seconds/query", cfg.Nodes, []string{"cold", "warm", fmt.Sprintf("shared%d", fanIn)})
	cfg.Engine.Cache = cacheConfig()
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}

		// Cold: one pass over the workload set, every query a miss.
		var cold time.Duration
		for _, qn := range tpch.QueryNumbers {
			start := time.Now()
			if _, err := s.Query(tpch.MustQuery(qn)); err != nil {
				return nil, fmt.Errorf("cache n=%d Q%d cold: %w", n, qn, err)
			}
			cold += time.Since(start)
		}
		fig.Values[r][0] = cold.Seconds() / float64(len(tpch.QueryNumbers))

		// Warm: the identical pass again, every query a hit.
		var warm time.Duration
		for _, qn := range tpch.QueryNumbers {
			start := time.Now()
			if _, err := s.Query(tpch.MustQuery(qn)); err != nil {
				return nil, fmt.Errorf("cache n=%d Q%d warm: %w", n, qn, err)
			}
			warm += time.Since(start)
		}
		fig.Values[r][1] = warm.Seconds() / float64(len(tpch.QueryNumbers))

		// Shared: drop everything, then fanIn concurrent identical cold
		// queries — one plan execution fans out to all callers.
		s.eng.Cache().DropAll()
		text := tpch.MustQuery(6)
		var (
			wg      sync.WaitGroup
			release = make(chan struct{})
			firstE  error
			mu      sync.Mutex
		)
		sharedStart := time.Now()
		for g := 0; g < fanIn; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				if _, err := s.Query(text); err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = err
					}
					mu.Unlock()
				}
			}()
		}
		close(release)
		wg.Wait()
		if firstE != nil {
			return nil, fmt.Errorf("cache n=%d shared: %w", n, firstE)
		}
		// Wall time for the whole fan-in, per query served.
		fig.Values[r][2] = time.Since(sharedStart).Seconds() / fanIn

		st := s.eng.Snapshot()
		progress(w, "cache n=%-2d  cold %7.3fs  warm %7.3fs  shared %7.3fs  (hits %d, shared %d, plans %d)",
			n, fig.Values[r][0], fig.Values[r][1], fig.Values[r][2],
			st.CacheHits, st.CacheShared, st.SVPQueries)
		if r == len(cfg.Nodes)-1 {
			fig.Notes = append(fig.Notes,
				fmt.Sprintf("last run: %d hits, %d shared executions, %d plan executions",
					st.CacheHits, st.CacheShared, st.SVPQueries))
		}
	}
	return fig, nil
}
