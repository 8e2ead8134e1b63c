package experiments

import (
	"fmt"
	"io"
	"time"

	"apuama/internal/core"
	"apuama/internal/tpch"
	"apuama/internal/workload"
)

// The ablations quantify the design decisions DESIGN.md calls out. They
// go beyond the paper's figures but test its §3 claims directly.

// AblationSeqscan measures Q6 with and without Apuama's enable_seqscan
// override. The paper: "if ... the optimizer chooses a full table scan to
// execute a sub-query, the virtual partition is ignored and the
// performance of SVP can be severely hurt."
func AblationSeqscan(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("abl-seqscan", "Q6 with forced index scans vs optimizer-chosen scans",
		"seconds", cfg.Nodes, []string{"force-index", "allow-seqscan"})
	for c, allow := range []bool{false, true} {
		run := cfg
		run.Engine.AllowSeqscan = allow
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			mean, _, err := workload.IsolatedTiming(s, tpch.MustQuery(6), run.Repeats)
			if err != nil {
				return nil, fmt.Errorf("abl-seqscan n=%d allow=%v: %w", n, allow, err)
			}
			fig.Values[r][c] = mean.Seconds()
			progress(w, "abl-seqscan n=%-2d allow=%-5v %8.3fs", n, allow, mean.Seconds())
		}
	}
	fig.Notes = append(fig.Notes, "paper §3: full scans ignore the virtual partition and thrash the cache")
	return fig, nil
}

// AblationBarrier measures the consistency blocker's cost under the
// mixed workload: read throughput and update-sequence time with the
// barrier on and off.
func AblationBarrier(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("abl-barrier", "consistency barrier cost under mixed workload",
		"queries/minute (reads) | seconds (updates)", cfg.Nodes,
		[]string{"qpm-barrier", "qpm-nobarrier", "upd-s-barrier", "upd-s-nobarrier"})
	for half, nobarrier := range []bool{false, true} {
		run := cfg
		run.Engine.NoBarrier = nobarrier
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			rep, err := workload.RunMixed(s, run.ReadStreams, run.Seed, refreshStatements(run))
			if err != nil {
				return nil, fmt.Errorf("abl-barrier n=%d nobarrier=%v: %w", n, nobarrier, err)
			}
			fig.Values[r][half] = rep.QPM()
			fig.Values[r][2+half] = rep.UpdateElapsed.Seconds()
			progress(w, "abl-barrier n=%-2d nobarrier=%-5v %8.1f q/min, updates %v",
				n, nobarrier, rep.QPM(), rep.UpdateElapsed.Round(time.Millisecond))
		}
	}
	fig.Notes = append(fig.Notes,
		"NoBarrier stays correct here only because node engines pin explicit snapshots (DESIGN.md)")
	return fig, nil
}

// BaselineComparison runs isolated Q1 and Q6 through Apuama and through
// the plain inter-query-only cluster (C-JDBC baseline): the motivating
// gap of the whole paper — inter-query parallelism cannot accelerate an
// individual heavy-weight query.
func BaselineComparison(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("abl-baseline", "Apuama vs inter-query-only baseline (isolated queries)",
		"seconds", cfg.Nodes, []string{"Q1-apuama", "Q1-baseline", "Q6-apuama", "Q6-baseline"})
	for half, baseline := range []bool{false, true} {
		run := cfg
		run.Engine.DisableSVP = baseline
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			for qi, qn := range []int{1, 6} {
				mean, _, err := workload.IsolatedTiming(s, tpch.MustQuery(qn), run.Repeats)
				if err != nil {
					return nil, fmt.Errorf("abl-baseline n=%d baseline=%v Q%d: %w", n, baseline, qn, err)
				}
				fig.Values[r][qi*2+half] = mean.Seconds()
			}
			progress(w, "abl-baseline n=%-2d baseline=%-5v done", n, baseline)
		}
	}
	fig.Notes = append(fig.Notes,
		"baseline times stay flat with node count: inter-query parallelism cannot speed up one query")
	return fig, nil
}

// AblationStrategy compares SVP with AVP (the SmaQ technique of §6),
// both isolated and under concurrent sequences — the paper's argument:
// "Apuama uses a simpler virtual partition technique than AVP that
// allows for better concurrent queries support. Since AVP locally
// subdivides the local sub-query it increases the level of concurrency
// while inducing a bad memory cache use."
func AblationStrategy(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("abl-strategy", "SVP vs AVP: isolated Q6 time and concurrent throughput",
		"seconds | queries/minute", cfg.Nodes,
		[]string{"Q6s-svp", "Q6s-avp", "qpm-svp", "qpm-avp"})
	for half, strategy := range []core.Strategy{core.SVP, core.AVP} {
		run := cfg
		run.Engine.Strategy = strategy
		avp := strategy == core.AVP
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			mean, _, err := workload.IsolatedTiming(s, tpch.MustQuery(6), run.Repeats)
			if err != nil {
				return nil, fmt.Errorf("abl-strategy n=%d avp=%v: %w", n, avp, err)
			}
			fig.Values[r][half] = mean.Seconds()
			// Fresh cluster for the concurrency measurement so neither
			// mode inherits the other's cache state.
			s, err = buildStack(n, run)
			if err != nil {
				return nil, err
			}
			rep, err := workload.RunStreams(s, run.ReadStreams, run.Seed)
			if err != nil {
				return nil, fmt.Errorf("abl-strategy streams n=%d avp=%v: %w", n, avp, err)
			}
			fig.Values[r][2+half] = rep.QPM()
			progress(w, "abl-strategy n=%-2d avp=%-5v Q6=%0.3fs qpm=%0.1f", n, avp, mean.Seconds(), rep.QPM())
		}
	}
	return fig, nil
}

// FreshnessExperiment explores the paper's proposed future work: relax
// replica consistency and measure the trade-off between OLAP result
// freshness and update-transaction performance. Runs the mixed workload
// under the strict barrier, a bounded-staleness policy and a fully
// relaxed policy.
func FreshnessExperiment(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("ext-freshness", "consistency policy vs mixed-workload performance",
		"queries/minute | update seconds", cfg.Nodes,
		[]string{"qpm-strict", "qpm-stale8", "qpm-relaxed", "upd-strict", "upd-stale8", "upd-relaxed"})
	policies := []struct {
		staleness int64
		nobarrier bool
	}{
		{0, false}, // the paper's protocol
		{8, false}, // bounded staleness
		{0, true},  // fully relaxed
	}
	for pi, pol := range policies {
		run := cfg
		run.Engine.MaxStaleness = pol.staleness
		run.Engine.NoBarrier = pol.nobarrier
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			rep, err := workload.RunMixed(s, run.ReadStreams, run.Seed, refreshStatements(run))
			if err != nil {
				return nil, fmt.Errorf("ext-freshness n=%d policy=%d: %w", n, pi, err)
			}
			fig.Values[r][pi] = rep.QPM()
			fig.Values[r][3+pi] = rep.UpdateElapsed.Seconds()
			progress(w, "ext-freshness n=%-2d policy=%d qpm=%0.1f updates=%v",
				n, pi, rep.QPM(), rep.UpdateElapsed.Round(time.Millisecond))
		}
	}
	fig.Notes = append(fig.Notes,
		"policies: strict barrier (paper) / staleness bound 8 writes / no barrier (unbounded)")
	return fig, nil
}

// Ablations runs the full ablation suite.
func Ablations(cfg Config, w io.Writer) ([]*Figure, error) {
	type exp struct {
		name string
		run  func(Config, io.Writer) (*Figure, error)
	}
	var out []*Figure
	for _, e := range []exp{
		{"abl-seqscan", AblationSeqscan},
		{"abl-barrier", AblationBarrier},
		{"abl-baseline", BaselineComparison},
		{"abl-strategy", AblationStrategy},
		{"abl-skew", AblationSkew},
		{"ext-freshness", FreshnessExperiment},
	} {
		progress(w, "=== %s ===", e.name)
		fig, err := e.run(cfg, w)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// AblationSkew loads the key-skewed TPC-H variant (the hot 10% of the
// key domain carries 6x the line items) and compares SVP's static ranges
// against AVP's dynamic queue on the full-scan query Q1. SVP is bounded
// by the straggler node owning the hot range; AVP's global chunk queue
// rebalances — the flip side of the §6 trade-off, where SVP wins under
// concurrency but static partitioning loses under skew.
func AblationSkew(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("abl-skew", "data skew: SVP static ranges vs AVP dynamic queue (isolated Q1)",
		"seconds", cfg.Nodes, []string{"svp-skewed", "avp-skewed"})
	for half, strategy := range []core.Strategy{core.SVP, core.AVP} {
		run := cfg
		run.Engine.Strategy = strategy
		avp := strategy == core.AVP
		if run.Skew == 0 {
			run.Skew = 6
		}
		for r, n := range run.Nodes {
			s, err := buildStack(n, run)
			if err != nil {
				return nil, err
			}
			mean, _, err := workload.IsolatedTiming(s, tpch.MustQuery(1), run.Repeats)
			if err != nil {
				return nil, fmt.Errorf("abl-skew n=%d avp=%v: %w", n, avp, err)
			}
			fig.Values[r][half] = mean.Seconds()
			progress(w, "abl-skew n=%-2d avp=%-5v %8.3fs", n, avp, mean.Seconds())
		}
	}
	fig.Notes = append(fig.Notes, "skew: hot 10% of the key domain carries 6x the line items")
	return fig, nil
}
