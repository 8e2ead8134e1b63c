package apuama_test

// One benchmark per figure in the paper's evaluation, plus component
// benches. The figure benches run a reduced sweep (Quick configuration:
// SF 0.002, nodes 1-2-4) and report the headline shape metrics the paper
// claims — e.g. the 4-node speedup per query for Fig. 2 — via
// b.ReportMetric. The full-scale regeneration lives in
// cmd/apuama-bench; see EXPERIMENTS.md for recorded runs.

import (
	"fmt"
	"testing"

	apuama "apuama"
	"apuama/internal/experiments"
	"apuama/internal/tpch"
)

// benchConfig is the reduced sweep used by the figure benches.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Repeats = 3
	return cfg
}

// BenchmarkFig2Speedup regenerates the Fig. 2 sweep once per iteration
// and reports each query's 4-node speedup (the paper's headline: ~2x at
// 2 nodes for every query; super-linear for the selective ones at 4).
func BenchmarkFig2Speedup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig2(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report from the final run
			last := len(fig.Nodes) - 1
			for c, name := range fig.Series {
				if fig.Values[last][c] > 0 {
					b.ReportMetric(fig.Values[0][c]/fig.Values[last][c],
						fmt.Sprintf("%s-speedup@%dn", name, fig.Nodes[last]))
				}
			}
		}
	}
}

// BenchmarkFig3aThroughput reports read-only throughput (queries/min) at
// the largest swept cluster size against the linear reference.
func BenchmarkFig3aThroughput(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3a(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(fig.Nodes) - 1
			b.ReportMetric(fig.Values[last][0], "qpm")
			if fig.Values[last][1] > 0 {
				b.ReportMetric(fig.Values[last][0]/fig.Values[last][1], "x-of-linear")
			}
		}
	}
}

// BenchmarkFig3bScaleup reports the scale-up ratio: ideal is 1.0 (flat),
// below 1.0 beats linear scale-up as the paper observed.
func BenchmarkFig3bScaleup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3b(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(fig.Nodes) - 1
			if fig.Values[0][0] > 0 {
				b.ReportMetric(fig.Values[last][0]/fig.Values[0][0], "time-vs-flat-ideal")
			}
		}
	}
}

// BenchmarkFig4aMixed reports mixed-workload read throughput with a
// concurrent refresh stream.
func BenchmarkFig4aMixed(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4a(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(fig.Nodes) - 1
			b.ReportMetric(fig.Values[last][0], "qpm")
		}
	}
}

// BenchmarkFig4bMixedScaleup reports the mixed-workload scale-up ratio.
func BenchmarkFig4bMixedScaleup(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4b(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := len(fig.Nodes) - 1
			if fig.Values[0][0] > 0 {
				b.ReportMetric(fig.Values[last][0]/fig.Values[0][0], "time-vs-flat-ideal")
			}
		}
	}
}

// --- component benches (no simulated sleeping: raw harness speed) ---

func benchCluster(b *testing.B, nodes int, disableSVP bool) *apuama.Cluster {
	b.Helper()
	cost := apuama.DefaultCost()
	cost.RealSleep = false
	c, err := apuama.Open(apuama.Config{Nodes: nodes, Cost: cost, Engine: apuama.EngineOptions{DisableSVP: disableSVP}})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.LoadTPCH(0.002, 1); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSVPQuery measures one SVP execution end to end (rewrite,
// barrier, fan-out, composition) without simulated latencies.
func BenchmarkSVPQuery(b *testing.B) {
	for _, qn := range []int{1, 6} {
		for _, n := range []int{1, 4} {
			b.Run(fmt.Sprintf("Q%d/nodes=%d", qn, n), func(b *testing.B) {
				c := benchCluster(b, n, false)
				q := tpch.MustQuery(qn)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					res.Release()
				}
			})
		}
	}
}

// BenchmarkPassThroughQuery measures the baseline path: the middleware
// forwarding an OLAP query to a single node.
func BenchmarkPassThroughQuery(b *testing.B) {
	c := benchCluster(b, 4, true)
	q := tpch.MustQuery(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLTPPointQuery measures the inter-query path the paper keeps
// untouched: a selective point read through the load balancer.
func BenchmarkOLTPPointQuery(b *testing.B) {
	c := benchCluster(b, 4, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("select o_totalprice from orders where o_orderkey = %d", i%1000+1)
		res, err := c.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkReplicatedWrite measures a write broadcast across replicas.
func BenchmarkReplicatedWrite(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			c := benchCluster(b, n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmt := fmt.Sprintf(
					"insert into orders values (%d, 1, 'O', 1.0, date '1997-01-01', '1-URGENT', 'c', 0, 'x')",
					1_000_000+i)
				if _, err := c.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefreshStream measures the paper's RF1+RF2 update transaction
// mix end to end.
func BenchmarkRefreshStream(b *testing.B) {
	c := benchCluster(b, 2, false)
	g := tpch.Generator{SF: 0.002, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh keys each iteration: shift the stream's base.
		stmts := tpch.NewRefreshStream(g, 3).Statements()
		b.StartTimer()
		for _, s := range stmts {
			if _, err := c.Exec(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
