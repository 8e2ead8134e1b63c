// Package experiments regenerates every figure in the paper's evaluation
// (§5): Fig. 2 (isolated-query speedup), Fig. 3(a) read-only throughput,
// Fig. 3(b) read-only scale-up, Fig. 4(a) mixed-workload throughput and
// Fig. 4(b) mixed-workload scale-up — plus the ablations called out in
// DESIGN.md. Absolute numbers come from the simulated cost model
// (EXPERIMENTS.md documents the calibration); the shapes are the target.
package experiments

import (
	"fmt"
	"io"
	"time"

	"apuama/internal/cluster"
	"apuama/internal/core"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/tpch"
	"apuama/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// SF is the TPC-H scale factor (the paper used 5 on 11 GB of disk;
	// the default here is scaled so the suite finishes in minutes).
	SF   float64
	Seed int64
	// Nodes lists the cluster sizes to sweep (the paper: 1..32).
	Nodes []int
	// Repeats is runs per isolated query; the first is dropped (paper
	// protocol: five runs, mean of the last four).
	Repeats int
	// ReadStreams is the concurrent-sequence count for throughput
	// experiments (TPC-H mandates 3 at the paper's scale).
	ReadStreams int
	// UpdateOrders is the refresh volume (orders inserted by RF1 then
	// deleted by RF2) for the mixed experiments; the paper used 52,500
	// transactions at SF 5, which the default scales proportionally.
	UpdateOrders int
	// Cost is the simulated-hardware model.
	Cost costmodel.Config
	// Skew > 1 loads the key-skewed TPC-H variant (hot low keys carry
	// Skew times the line items); see the skew ablation.
	Skew float64
	// Engine configures every deployed Apuama Engine. The ablations flip
	// its paper switches (DisableSVP, NoBarrier, AllowSeqscan, Strategy,
	// MaxStaleness); the cache, overload, steal, columnar and mqo
	// experiments set its modes.
	Engine core.Options
}

// Default returns the configuration used for the recorded runs in
// EXPERIMENTS.md.
func Default() Config {
	return Config{
		SF:           0.005,
		Seed:         1,
		Nodes:        []int{1, 2, 4, 8, 16, 32},
		Repeats:      5,
		ReadStreams:  3,
		UpdateOrders: 52, // 52,500 txns at SF 5, scaled by SF/5
		Cost:         ExperimentCost(),
	}
}

// Quick returns a configuration for smoke runs and benchmarks.
func Quick() Config {
	c := Default()
	c.SF = 0.002
	c.Nodes = []int{1, 2, 4}
	c.Repeats = 3
	c.UpdateOrders = 20
	return c
}

// ExperimentCost is the calibrated simulated-hardware model: 2005-era
// disk latencies, a buffer pool sized so that fact-table virtual
// partitions start fitting in node RAM at 4 nodes (the paper's observed
// knee), and per-tuple CPU charges dominating the harness's own compute
// so wall-clock curves reflect the model rather than the host.
func ExperimentCost() costmodel.Config {
	return costmodel.Config{
		PageSize:     2048,
		CachePages:   800,
		SeqPageRead:  600 * time.Microsecond,
		RandPageRead: 3 * time.Millisecond,
		CPUTuple:     12 * time.Microsecond,
		CPUOperator:  6 * time.Microsecond,
		NetMessage:   1500 * time.Microsecond,
		NetPerRow:    15 * time.Microsecond,
		WriteFanout:  150 * time.Microsecond,
		RealSleep:    true,
	}
}

// stack is one deployed cluster (fresh database per node count, as the
// paper redeployed per configuration).
type stack struct {
	db    *engine.Database
	nodes []*engine.Node
	eng   *core.Engine
	ctl   *cluster.Controller
}

func (s *stack) Query(q string) (*engine.Result, error) { return s.ctl.Query(q) }
func (s *stack) Exec(q string) (int64, error)           { return s.ctl.Exec(q) }

func buildStack(n int, cfg Config) (*stack, error) {
	db := engine.NewDatabase(cfg.Cost)
	if _, err := (tpch.Generator{SF: cfg.SF, Seed: cfg.Seed, Skew: cfg.Skew}).Load(db); err != nil {
		return nil, err
	}
	nodes := make([]*engine.Node, n)
	for i := range nodes {
		nodes[i] = engine.NewNode(i, db)
	}
	eng := core.New(db, nodes, core.TPCHCatalog(), cfg.Engine, nil)
	ctl := cluster.New(db, eng.Backends(), nil)
	return &stack{db: db, nodes: nodes, eng: eng, ctl: ctl}, nil
}

// Figure is one regenerated table/plot: a value per (node count, series).
type Figure struct {
	ID     string
	Title  string
	YLabel string
	// RowLabel names the row dimension; empty means "nodes" (the
	// overload figure sweeps offered-load multiples instead).
	RowLabel string
	Nodes    []int
	Series   []string
	// Values[r][c] is the value at Nodes[r] for Series[c].
	Values [][]float64
	Notes  []string
}

func newFigure(id, title, ylabel string, nodes []int, series []string) *Figure {
	vals := make([][]float64, len(nodes))
	for i := range vals {
		vals[i] = make([]float64, len(series))
	}
	return &Figure{ID: id, Title: title, YLabel: ylabel, Nodes: nodes, Series: series, Values: vals}
}

// Fprint renders the figure as an aligned table.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s (%s)\n", f.ID, f.Title, f.YLabel)
	row := f.RowLabel
	if row == "" {
		row = "nodes"
	}
	fmt.Fprintf(w, "%8s", row)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for r, n := range f.Nodes {
		fmt.Fprintf(w, "%8d", n)
		for c := range f.Series {
			fmt.Fprintf(w, " %12.3f", f.Values[r][c])
		}
		fmt.Fprintln(w)
	}
	for _, note := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// Normalized returns a copy with every series divided by its 1-node (first
// row) value — the paper's normalized presentation.
func (f *Figure) Normalized() *Figure {
	out := newFigure(f.ID+"-norm", f.Title+" (normalized to 1 node)", "x of 1-node value", f.Nodes, f.Series)
	for c := range f.Series {
		base := f.Values[0][c]
		for r := range f.Nodes {
			if base != 0 {
				out.Values[r][c] = f.Values[r][c] / base
			}
		}
	}
	return out
}

// progress emits a status line when w is non-nil.
func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// Fig2 regenerates the paper's Fig. 2: isolated execution time per query
// per cluster size (five runs, first dropped). Values are seconds;
// call Normalized() for the paper's presentation.
func Fig2(cfg Config, w io.Writer) (*Figure, error) {
	series := make([]string, len(tpch.QueryNumbers))
	for i, qn := range tpch.QueryNumbers {
		series[i] = fmt.Sprintf("Q%d", qn)
	}
	fig := newFigure("fig2", "isolated query execution time", "seconds", cfg.Nodes, series)
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}
		for c, qn := range tpch.QueryNumbers {
			mean, _, err := workload.IsolatedTiming(s, tpch.MustQuery(qn), cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("fig2 n=%d Q%d: %w", n, qn, err)
			}
			fig.Values[r][c] = mean.Seconds()
			progress(w, "fig2 n=%-2d Q%-2d  %8.3fs", n, qn, mean.Seconds())
		}
	}
	return fig, nil
}

// Fig3a regenerates Fig. 3(a): queries/minute with ReadStreams concurrent
// read-only sequences, against the linear-gain reference.
func Fig3a(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("fig3a", fmt.Sprintf("throughput, %d read-only sequences", cfg.ReadStreams),
		"queries/minute", cfg.Nodes, []string{"apuama", "linear"})
	var base float64
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := workload.RunStreams(s, cfg.ReadStreams, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig3a n=%d: %w", n, err)
		}
		qpm := rep.QPM()
		if r == 0 {
			base = qpm
		}
		fig.Values[r][0] = qpm
		fig.Values[r][1] = base * float64(n) / float64(cfg.Nodes[0])
		progress(w, "fig3a n=%-2d  %8.1f q/min (%d queries in %v)", n, qpm, rep.Queries, rep.Elapsed.Round(time.Millisecond))
	}
	return fig, nil
}

// Fig3b regenerates Fig. 3(b): total execution time with n concurrent
// sequences on n nodes; the ideal ("linear") is flat.
func Fig3b(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("fig3b", "scale-up: n read-only sequences on n nodes",
		"seconds", cfg.Nodes, []string{"apuama", "linear"})
	var base float64
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := workload.RunStreams(s, n, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig3b n=%d: %w", n, err)
		}
		secs := rep.Elapsed.Seconds()
		if r == 0 {
			base = secs
		}
		fig.Values[r][0] = secs
		fig.Values[r][1] = base // flat ideal
		progress(w, "fig3b n=%-2d  %8.2fs (%d queries)", n, secs, rep.Queries)
	}
	return fig, nil
}

// refreshStatements builds the update sequence for the mixed workloads.
func refreshStatements(cfg Config) []string {
	return tpch.NewRefreshStream(tpch.Generator{SF: cfg.SF, Seed: cfg.Seed}, cfg.UpdateOrders).Statements()
}

// Fig4a regenerates Fig. 4(a): read throughput with ReadStreams read-only
// sequences plus one concurrent update sequence.
func Fig4a(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("fig4a", fmt.Sprintf("mixed workload, %d read + 1 update sequence", cfg.ReadStreams),
		"queries/minute", cfg.Nodes, []string{"apuama", "linear"})
	var base float64
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := workload.RunMixed(s, cfg.ReadStreams, cfg.Seed, refreshStatements(cfg))
		if err != nil {
			return nil, fmt.Errorf("fig4a n=%d: %w", n, err)
		}
		qpm := rep.QPM()
		if r == 0 {
			base = qpm
		}
		fig.Values[r][0] = qpm
		fig.Values[r][1] = base * float64(n) / float64(cfg.Nodes[0])
		progress(w, "fig4a n=%-2d  %8.1f q/min (%d updates in %v, total %v)",
			n, qpm, rep.Updates, rep.UpdateElapsed.Round(time.Millisecond), rep.Elapsed.Round(time.Millisecond))
	}
	return fig, nil
}

// Fig4b regenerates Fig. 4(b): total time with n read sequences plus one
// update sequence on n nodes.
func Fig4b(cfg Config, w io.Writer) (*Figure, error) {
	fig := newFigure("fig4b", "mixed scale-up: n read + 1 update sequence on n nodes",
		"seconds", cfg.Nodes, []string{"apuama", "linear"})
	var base float64
	for r, n := range cfg.Nodes {
		s, err := buildStack(n, cfg)
		if err != nil {
			return nil, err
		}
		rep, err := workload.RunMixed(s, n, cfg.Seed, refreshStatements(cfg))
		if err != nil {
			return nil, fmt.Errorf("fig4b n=%d: %w", n, err)
		}
		secs := rep.Elapsed.Seconds()
		if r == 0 {
			base = secs
		}
		fig.Values[r][0] = secs
		fig.Values[r][1] = base
		progress(w, "fig4b n=%-2d  %8.2fs (%d reads, %d updates)", n, secs, rep.Queries, rep.Updates)
	}
	return fig, nil
}

// All runs every paper figure and returns them in order.
func All(cfg Config, w io.Writer) ([]*Figure, error) {
	type exp struct {
		name string
		run  func(Config, io.Writer) (*Figure, error)
	}
	var out []*Figure
	for _, e := range []exp{
		{"fig2", Fig2}, {"fig3a", Fig3a}, {"fig3b", Fig3b}, {"fig4a", Fig4a}, {"fig4b", Fig4b},
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
