package core

import (
	"testing"

	"apuama/internal/cluster"
	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/tpch"
)

func buildStackB(b *testing.B, n int) *stack {
	b.Helper()
	return buildStackOptsB(b, n, DefaultOptions())
}

func buildStackOptsB(b *testing.B, n int, opts Options) *stack {
	b.Helper()
	db := engine.NewDatabase(costmodel.TestConfig())
	if _, err := (tpch.Generator{SF: testSF, Seed: 1}).Load(db); err != nil {
		b.Fatal(err)
	}
	nodes := make([]*engine.Node, n)
	for i := range nodes {
		nodes[i] = engine.NewNode(i, db)
	}
	eng := New(db, nodes, TPCHCatalog(), opts, nil)
	ctl := cluster.New(db, eng.Backends(), nil)
	return &stack{db: db, nodes: nodes, eng: eng, ctl: ctl}
}
