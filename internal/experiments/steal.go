package experiments

import (
	"fmt"
	"io"

	"apuama/internal/fault"
	"apuama/internal/tpch"
	"apuama/internal/workload"
)

// stealNodes is the fixed cluster size for the straggler study: the
// experiment sweeps partition granularity, not node count, so one
// mid-size cluster keeps the rows comparable.
const stealNodes = 4

// stealFactor is the straggler's proportional slowdown: the last node
// runs every statement at this multiple of its natural duration.
const stealFactor = 8.0

// StealExperiment regenerates the work-stealing study behind the
// fine-grained AVP design: the same cluster with one of four nodes
// running at 8× latency, swept across partition granularities
// (partitions per configured node). Each row reports the no-straggler
// baseline, the with-straggler runtime, the slowdown ratio between
// them — the speedup-vs-straggler headline — and the steals the shared
// queue recorded while redistributing the slow node's home partitions.
// The shape to look for: slowdown near the straggler factor at
// granularity 1 (the coarse split pins one range to the slow node),
// collapsing toward 4/3.125 ≈ 1.3 as granularity rises and the three
// fast nodes absorb the queue.
func StealExperiment(cfg Config, w io.Writer) (*Figure, error) {
	granularities := []int{1, 4, 16, 64}
	fig := newFigure("steal", fmt.Sprintf("work stealing: 1 of %d nodes at %gx latency, granularity sweep", stealNodes, stealFactor),
		"baseline s | straggler s | slowdown x | steals", granularities,
		[]string{"baseline_s", "straggler_s", "slowdown_x", "steals"})
	fig.RowLabel = "gran"
	fig.Notes = append(fig.Notes,
		"rows are partitions per configured node (-avp-granularity), not node counts",
		"slowdown_x compares each granularity against its own no-straggler baseline")

	query := tpch.MustQuery(6)
	for r, g := range granularities {
		// Fresh stack per granularity, as the paper redeployed per
		// configuration: no row inherits the previous row's cache warmth
		// or adaptive-chunk state.
		c := cfg
		c.Engine.AVPGranularity = g
		s, err := buildStack(stealNodes, c)
		if err != nil {
			return nil, err
		}
		base, _, err := workload.IsolatedTiming(s, query, cfg.Repeats)
		if err != nil {
			return nil, fmt.Errorf("steal g=%d baseline: %w", g, err)
		}
		s.eng.Procs()[stealNodes-1].InjectFaults(fault.New(cfg.Seed).SlowFactor(stealFactor))
		before := s.eng.Snapshot()
		deg, _, err := workload.IsolatedTiming(s, query, cfg.Repeats)
		if err != nil {
			return nil, fmt.Errorf("steal g=%d straggler: %w", g, err)
		}
		steals := s.eng.Snapshot().AVPSteals - before.AVPSteals
		fig.Values[r][0] = base.Seconds()
		fig.Values[r][1] = deg.Seconds()
		if base > 0 {
			fig.Values[r][2] = float64(deg) / float64(base)
		}
		fig.Values[r][3] = float64(steals)
		progress(w, "steal g=%-3d base %8.3fs straggler %8.3fs slowdown %5.2fx steals %d",
			g, base.Seconds(), deg.Seconds(), fig.Values[r][2], steals)
	}
	return fig, nil
}
