// Quickstart: open a 4-node Apuama cluster, load TPC-H, and watch the
// same OLAP query run with and without intra-query parallelism.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	apuama "apuama"
	"apuama/internal/experiments"
	"apuama/internal/tpch"
)

func main() {
	const nodes = 4
	// The calibrated simulated-hardware model from the experiment
	// harness: 2005-era disk latencies and a buffer pool that cannot
	// hold the whole fact table on one node.
	cost := experiments.ExperimentCost()

	// The paper's stack: C-JDBC-style controller + Apuama engine.
	withSVP, err := apuama.Open(apuama.Config{Nodes: nodes, Cost: cost})
	if err != nil {
		log.Fatal(err)
	}
	// The baseline: the same cluster with Apuama disabled (inter-query
	// parallelism only — one node runs the whole query).
	baseline, err := apuama.Open(apuama.Config{Nodes: nodes, Cost: cost, Engine: apuama.EngineOptions{DisableSVP: true}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("loading TPC-H (SF 0.005) into both clusters ...")
	for _, c := range []*apuama.Cluster{withSVP, baseline} {
		if err := c.LoadTPCH(0.005, 1); err != nil {
			log.Fatal(err)
		}
	}

	q6 := tpch.MustQuery(6)
	fmt.Println("\nTPC-H Q6 (forecasting revenue change):")
	fmt.Println(q6)

	run := func(name string, c *apuama.Cluster) time.Duration {
		// Warm-up run, then a measured run — the paper's protocol.
		if _, err := c.Query(q6); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := c.Query(q6)
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		fmt.Printf("\n%s (%d nodes): %v\n%s", name, c.NumNodes(), d.Round(time.Millisecond), res.String())
		return d
	}
	tBase := run("baseline (inter-query only)", baseline)
	tSVP := run("apuama (SVP intra-query)", withSVP)

	fmt.Printf("\nspeedup on %d nodes: %.1fx\n", nodes, float64(tBase)/float64(tSVP))
	st := withSVP.Stats()
	fmt.Printf("apuama stats: %d SVP queries, %d sub-queries dispatched, %d partial rows composed\n",
		st.SVPQueries, st.SubQueries, st.ComposedRows)

	// Updates flow through the same middleware and stay consistent.
	if _, err := withSVP.Exec("delete from lineitem where l_orderkey = 42"); err != nil {
		log.Fatal(err)
	}
	res, err := withSVP.Query("select count(*) from lineitem where l_orderkey = 42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after replicated delete, rows for order 42: %s\n", res.Rows[0][0].String())
}
