package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"apuama/internal/admission"
	"apuama/internal/fault"
	"apuama/internal/tpch"
)

// overloadNodes is the fixed cluster size for the saturation study: the
// experiment sweeps offered load, not node count, so one mid-size
// cluster keeps the three rows comparable.
const overloadNodes = 4

// overloadAdmission is the gate configuration when the caller leaves
// cfg.Admission zero: a small slot pool with a shallow queue and a
// short bounded wait, so saturation shows up as typed sheds within the
// run rather than as a long convoy.
func overloadAdmission() admission.Config {
	return admission.Config{
		MaxConcurrent: 24,
		MaxQueue:      24,
		QueueTimeout:  100 * time.Millisecond,
		MemoryBudget:  64 << 20,
		Brownout:      true,
	}
}

// overloadQueryWeight is the admission weight of the load query (Q1:
// group-by plus aggregates plus order-by → 1+1+1). Offered load is
// measured in weight units so the 1x row really sits at gate capacity:
// clients × weight = multiple × MaxConcurrent.
const overloadQueryWeight = 3

// OverloadExperiment regenerates the saturation study behind the
// overload-protection design: offered load at 1x, 2x and 4x the
// admission gate's capacity, reporting goodput (successfully answered
// queries per minute), shed rate (percent of offers refused with a
// typed retryable error) and the p95 latency of the queries that were
// answered. The shape to look for: goodput holds roughly flat past 1x
// while the shed rate absorbs the excess — the gate degrades by
// refusing work it cannot serve instead of slowing everything it
// admits.
func OverloadExperiment(cfg Config, w io.Writer) (*Figure, error) {
	adm := cfg.Engine.Admission
	if !adm.Enabled() {
		adm = overloadAdmission()
	}
	cfg.Engine.Admission = adm

	multiples := []int{1, 2, 4}
	fig := newFigure("overload", fmt.Sprintf("saturation: offered load vs %d admission slots, %d nodes", adm.MaxConcurrent, overloadNodes),
		"goodput q/min | shed % | p95 ms", multiples, []string{"goodput_qpm", "shed_pct", "p95_ms"})
	fig.RowLabel = "xload"
	fig.Notes = append(fig.Notes,
		"rows are offered-load multiples of MaxConcurrent, not node counts",
		"sheds are typed retryable refusals (ErrOverloaded), not failures")

	query := tpch.MustQuery(1)
	for r, m := range multiples {
		// Fresh stack per load level, as the paper redeployed per
		// configuration: no level inherits the previous level's brownout
		// state or cache warmth.
		s, err := buildStack(overloadNodes, cfg)
		if err != nil {
			return nil, err
		}
		clients := m * adm.MaxConcurrent / overloadQueryWeight
		if clients < 1 {
			clients = 1
		}
		plan := fault.NewSpike(cfg.Seed, clients).Ramp(5*time.Millisecond).Queries(3, 1).Plan()

		var (
			mu        sync.Mutex
			latencies []time.Duration
			shed      int64
			offered   int64
			runErr    error
		)
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, cl := range plan {
			wg.Add(1)
			go func(cl fault.SpikeClient) {
				defer wg.Done()
				time.Sleep(time.Until(t0.Add(cl.Start)))
				for q := 0; q < cl.Queries; q++ {
					qt0 := time.Now()
					res, err := s.Query(query)
					d := time.Since(qt0)
					res.Release()
					mu.Lock()
					offered++
					switch {
					case err == nil:
						latencies = append(latencies, d)
					case errors.Is(err, admission.ErrOverloaded):
						shed++
					case runErr == nil:
						runErr = fmt.Errorf("overload x%d client %d: %w", m, cl.ID, err)
					}
					mu.Unlock()
				}
			}(cl)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		if runErr != nil {
			return nil, runErr
		}

		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var p95 time.Duration
		if len(latencies) > 0 {
			p95 = latencies[len(latencies)*95/100]
		}
		fig.Values[r][0] = float64(len(latencies)) / elapsed.Minutes()
		fig.Values[r][1] = 100 * float64(shed) / float64(offered)
		fig.Values[r][2] = float64(p95) / float64(time.Millisecond)
		st := s.eng.Admission().Snapshot()
		progress(w, "overload x%-2d  %6.0f q/min  shed %5.1f%%  p95 %6.1fms  (offered %d, brownout raises %d, mem peak %dKB)",
			m, fig.Values[r][0], fig.Values[r][1], fig.Values[r][2], offered, st.BrownoutRaises, st.MemPeak>>10)
	}
	return fig, nil
}
