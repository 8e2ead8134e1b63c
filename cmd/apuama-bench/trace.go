package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	apuama "apuama"
	"apuama/internal/experiments"
	"apuama/internal/tpch"
)

// tracePhases are the query-lifecycle spans that tile the root query
// span end to end; "other" (facade/controller overhead between phases)
// is derived as the remainder.
var tracePhases = []string{"plan", "barrier-wait", "dispatch", "gather", "compose"}

// runTrace runs every SVP-eligible TPC-H query once on a traced
// cluster and prints the per-phase latency breakdown of each query's
// span tree. The phase columns plus "other" sum to the total by
// construction; "cover%" reports how much of the total the named
// lifecycle phases explain (the sanity signal that the span tree
// actually tiles the query).
func runTrace(cfg experiments.Config) error {
	c, err := openTraced(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("apuama-bench: tracing %d TPC-H queries on %d nodes at SF %g\n\n",
		len(tpch.QueryNumbers), c.NumNodes(), cfg.SF)
	for _, qn := range tpch.QueryNumbers {
		res, err := c.Query(tpch.MustQuery(qn))
		if err != nil {
			return fmt.Errorf("Q%d: %w", qn, err)
		}
		res.Release()
	}

	traces := c.SlowLog() // most recent first
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "query\ttotal\t")
	for _, ph := range tracePhases {
		fmt.Fprintf(tw, "%s\t", ph)
	}
	fmt.Fprint(tw, "other\tsubqueries\tcover%\t\n")
	for i := len(traces) - 1; i >= 0; i-- {
		tr := traces[i]
		qn := tpch.QueryNumbers[len(traces)-1-i]
		total := tr.Duration
		var explained time.Duration
		fmt.Fprintf(tw, "Q%d\t%s\t", qn, fmtDur(total))
		for _, ph := range tracePhases {
			var d time.Duration
			if child, ok := tr.ChildNamed(ph); ok {
				d = child.Duration
			}
			explained += d
			fmt.Fprintf(tw, "%s\t", fmtDur(d))
		}
		subq := 0
		for _, child := range tr.Children {
			if child.Name == "subquery" {
				subq++
			}
		}
		other := total - explained
		if other < 0 {
			other = 0
		}
		cover := 0.0
		if total > 0 {
			cover = 100 * float64(explained) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t\n", fmtDur(other), subq, cover)
	}
	return tw.Flush()
}

// openTraced opens the traced cluster: the largest configured node count
// (4 when none is), cfg's engine options, and TPC-H at cfg's scale
// factor and seed.
func openTraced(cfg experiments.Config) (*apuama.Cluster, error) {
	n := 4
	if len(cfg.Nodes) > 0 {
		n = cfg.Nodes[len(cfg.Nodes)-1]
	}
	c, err := apuama.Open(apuama.Config{Nodes: n, Engine: cfg.Engine, Trace: true, SlowLogSize: 256})
	if err != nil {
		return nil, err
	}
	if err := c.LoadTPCH(cfg.SF, cfg.Seed); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// fmtDur renders a duration at microsecond resolution (the scale the
// simulated cost model operates at).
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
