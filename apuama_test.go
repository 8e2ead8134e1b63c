package apuama

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"apuama/internal/tpch"
)

func openTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Cost.PageSize == 0 {
		cfg.Cost = DefaultCost()
		cfg.Cost.RealSleep = false
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadTPCH(0.001, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := Open(Config{Nodes: -3}); err == nil {
		t.Error("negative nodes should fail")
	}
}

func TestFacadeQueryAndExec(t *testing.T) {
	c := openTest(t, Config{Nodes: 3})
	res, err := c.Query(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Cols[0] != "revenue" {
		t.Fatalf("%+v", res)
	}
	if c.NumNodes() != 3 {
		t.Error("NumNodes")
	}
	n, err := c.Exec("delete from lineitem where l_orderkey = 5")
	if err != nil || n < 1 {
		t.Fatalf("exec: %d %v", n, err)
	}
	st := c.Stats()
	if st.SVPQueries != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestFacadeBaselineMode(t *testing.T) {
	c := openTest(t, Config{Nodes: 2, Engine: EngineOptions{DisableSVP: true}})
	if _, err := c.Query(tpch.MustQuery(6)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SVPQueries != 0 || st.PassThrough != 1 {
		t.Errorf("baseline stats: %+v", st)
	}
}

func TestFacadeMetersAndSizes(t *testing.T) {
	c := openTest(t, Config{Nodes: 2})
	if _, err := c.Query("select count(*) from lineitem"); err != nil {
		t.Fatal(err)
	}
	_, misses := c.NodeIOStats()
	total := int64(0)
	for _, m := range misses {
		total += m
	}
	if total == 0 {
		t.Error("no IO recorded")
	}
	c.ResetMeters()
	_, misses = c.NodeIOStats()
	for _, m := range misses {
		if m != 0 {
			t.Error("ResetMeters did not clear IO stats")
		}
	}
	sizes := c.SizeReport()
	if sizes["lineitem"] == 0 {
		t.Errorf("sizes: %v", sizes)
	}
	db, nodes, eng, ctl := c.Internals()
	if db == nil || len(nodes) != 2 || eng == nil || ctl == nil {
		t.Error("Internals")
	}
}

func TestFacadeAblationOptions(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 2, Engine: EngineOptions{NoBarrier: true}},
		{Nodes: 2, Engine: EngineOptions{AllowSeqscan: true}},
	} {
		c := openTest(t, cfg)
		res, err := c.Query(tpch.MustQuery(1))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%+v: empty Q1", cfg)
		}
	}
}

func TestClusterVacuum(t *testing.T) {
	c := openTest(t, Config{Nodes: 2})
	before := c.SizeReport()["lineitem"]
	if _, err := c.Exec("delete from lineitem where l_orderkey <= 500"); err != nil {
		t.Fatal(err)
	}
	removed := c.Vacuum()
	if removed == 0 {
		t.Fatal("vacuum reclaimed nothing")
	}
	after := c.SizeReport()["lineitem"]
	if after >= before {
		t.Errorf("pages did not shrink: %d -> %d", before, after)
	}
	// Queries still correct post-vacuum.
	res, err := c.Query("select count(*) from lineitem where l_orderkey <= 500")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("deleted rows visible after vacuum: %v", res.Rows[0])
	}
	res, err = c.Query("select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Error("vacuum destroyed live rows")
	}
}

func TestFreshnessThroughFacade(t *testing.T) {
	c := openTest(t, Config{Nodes: 3, Engine: EngineOptions{MaxStaleness: 8}})
	if _, err := c.Exec("delete from orders where o_orderkey = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("select count(*) from orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Error("empty result")
	}
}

func TestAVPThroughFacade(t *testing.T) {
	c := openTest(t, Config{Nodes: 3, Engine: EngineOptions{Strategy: AVP}})
	res, err := c.Query(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%+v", res)
	}
	if st := c.Stats(); st.SubQueries <= 3 {
		t.Errorf("AVP should chunk: %+v", st.SubQueries)
	}
}

func TestKillRecoverCycle(t *testing.T) {
	c := openTest(t, Config{Nodes: 3})
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	// Writes proceed on survivors while node 1 is dead.
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(fmt.Sprintf("delete from orders where o_orderkey = %d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// A read to flush failover state (the dead node gets disabled).
	if _, err := c.Query("select count(*) from nation"); err != nil {
		t.Fatal(err)
	}
	// Recover: replay missed writes, rejoin.
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	db, nodes, _, _ := c.Internals()
	_ = db
	if nodes[1].Watermark() != nodes[0].Watermark() {
		t.Fatalf("recovered node not caught up: %d vs %d", nodes[1].Watermark(), nodes[0].Watermark())
	}
	// The recovered replica participates in SVP again and answers match.
	res, err := c.Query("select count(*) from orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1500-5 {
		t.Fatalf("post-recovery count: %v", res.Rows[0])
	}
	st := c.Stats()
	if st.SVPQueries == 0 {
		t.Error("SVP did not run post-recovery")
	}
	if err := c.KillNode(99); err == nil {
		t.Error("bad node index should fail")
	}
	if err := c.RecoverNode(-1); err == nil {
		t.Error("bad node index should fail")
	}
}

func TestRecoverWithFurtherWrites(t *testing.T) {
	c := openTest(t, Config{Nodes: 2})
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("delete from lineitem where l_orderkey = 2"); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	// Writes after recovery reach both replicas again.
	if _, err := c.Exec("delete from lineitem where l_orderkey = 3"); err != nil {
		t.Fatal(err)
	}
	_, nodes, _, _ := c.Internals()
	if nodes[0].Watermark() != nodes[1].Watermark() {
		t.Fatalf("watermarks diverged after recovery: %d vs %d", nodes[0].Watermark(), nodes[1].Watermark())
	}
}

func TestExplainThroughCluster(t *testing.T) {
	c := openTest(t, Config{Nodes: 2})
	res, err := c.Query("explain select sum(l_quantity) from lineitem where l_orderkey between 1 and 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0] != "QUERY PLAN" || len(res.Rows) == 0 {
		t.Fatalf("%+v", res)
	}
	found := false
	for _, row := range res.Rows {
		if strings.Contains(row[0].S, "Index Scan") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected index scan in plan: %v", res.Rows)
	}
}

func TestReplicatedUpdateStatement(t *testing.T) {
	c := openTest(t, Config{Nodes: 3})
	if n, err := c.Exec("update orders set o_orderpriority = '1-URGENT' where o_orderkey <= 20"); err != nil || n != 20 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	// Every replica sees exactly one version per key with the new value.
	_, nodes, _, _ := c.Internals()
	for _, nd := range nodes {
		res, err := nd.Query("select count(*) from orders where o_orderkey <= 20 and o_orderpriority = '1-URGENT'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 20 {
			t.Fatalf("node %d: %v", nd.ID(), res.Rows[0])
		}
		res, err = nd.Query("select count(*) from orders where o_orderkey <= 20")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 20 {
			t.Fatalf("node %d duplicated versions: %v", nd.ID(), res.Rows[0])
		}
	}
	// And SVP aggregates reflect it.
	res, err := c.Query("select count(*) from orders where o_orderpriority = '1-URGENT' and o_orderkey <= 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 20 {
		t.Fatalf("cluster view: %v", res.Rows[0])
	}
}

func TestConcurrentUpdatesRacingReplicas(t *testing.T) {
	// UPDATE statements race across replicas applying kill+reinsert; the
	// shared heap must end with exactly one live version per key.
	c := openTest(t, Config{Nodes: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				lo := g*50 + i*10 + 1
				stmt := fmt.Sprintf("update orders set o_shippriority = %d where o_orderkey between %d and %d", g+1, lo, lo+9)
				if _, err := c.Exec(stmt); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := c.Query("select count(*) from orders where o_orderkey <= 200")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 200 {
		t.Fatalf("version count wrong after racing updates: %v", res.Rows[0])
	}
	res, err = c.Query("select count(*) from orders where o_orderkey <= 200 and o_shippriority > 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 200 {
		t.Fatalf("updates lost: %v", res.Rows[0])
	}
}
