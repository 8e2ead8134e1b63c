package main

import (
	"testing"

	apuama "apuama"
	"apuama/internal/experiments"
)

// TestTraceClusterHonoursEngineAndSeed: -trace opens its cluster with the
// engine options the flags set (here -columnar -avp-granularity 1) and loads
// TPC-H with -seed, not a default cluster over seed 1.
func TestTraceClusterHonoursEngineAndSeed(t *testing.T) {
	cfg := experiments.Quick()
	cfg.SF, cfg.Seed, cfg.Nodes = 0.0005, 7, []int{1, 2}
	cfg.Engine.Columnar = true
	cfg.Engine.AVPGranularity = 1
	c, err := openTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumNodes() != 2 {
		t.Errorf("traced %d nodes, want the largest configured count 2", c.NumNodes())
	}
	_, _, eng, _ := c.Internals()
	if got := eng.Options(); !got.Columnar || got.AVPGranularity != 1 {
		t.Errorf("engine built with Columnar=%v AVPGranularity=%d, want true and 1", got.Columnar, got.AVPGranularity)
	}

	// An integer sum: exact whatever the partitioning, different per seed.
	const probe = "select sum(o_custkey) from orders"
	digest := func(c *apuama.Cluster) string {
		t.Helper()
		res, err := c.Query(probe)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].String()
	}
	got := digest(c)
	for seed, wantSame := range map[int64]bool{7: true, 1: false} {
		ref, err := apuama.Open(apuama.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadTPCH(cfg.SF, seed); err != nil {
			t.Fatal(err)
		}
		if same := digest(ref) == got; same != wantSame {
			t.Errorf("traced data equal to seed %d's: %v, want %v", seed, same, wantSame)
		}
		ref.Close()
	}
}
