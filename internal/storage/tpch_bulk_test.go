package storage_test

import (
	"slices"
	"testing"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/storage"
	"apuama/internal/tpch"
)

// rowByRow loads a fresh database with db's schema and rows, one
// Relation.Insert per row in heap order: the load the bulk path replaces.
func rowByRow(t *testing.T, db *engine.Database) (*engine.Database, *engine.Node) {
	t.Helper()
	out := engine.NewDatabase(costmodel.TestConfig())
	nd := engine.NewNode(0, out)
	for _, ddl := range tpch.DDL() {
		if _, err := nd.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range db.Relations() {
		src, _ := db.Relation(name)
		dst, err := out.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range src.PageSnapshot() {
			for s := int32(0); s < int32(p.Count()); s++ {
				if _, err := dst.Insert(0, p.Row(s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out, nd
}

// sameDatabase fails unless every relation of a and b holds the same heap,
// statistics and index entries, in valid trees.
func sameDatabase(t *testing.T, when string, a, b *engine.Database) {
	t.Helper()
	names, others := a.Relations(), b.Relations()
	slices.Sort(names)
	slices.Sort(others)
	if !slices.Equal(names, others) {
		t.Fatalf("%s: relations %v against %v", when, names, others)
	}
	for _, name := range names {
		ra, _ := a.Relation(name)
		rb, _ := b.Relation(name)
		t.Run(when+"/"+name, func(t *testing.T) { storage.SameRelation(t, ra, rb) })
	}
}

// TestBulkLoadMatchesRowByRow loads SF 0.005 in bulk and one row at a
// time, and finds the same database; it then runs two RF1/RF2 refresh
// blocks on both, with a vacuum after each, and finds the same database,
// every tree valid, after every step — the bulk-built trees take the
// refresh writes' leaf splits and merges like trees grown one Insert at a
// time.
func TestBulkLoadMatchesRowByRow(t *testing.T) {
	g := tpch.Generator{SF: 0.005, Seed: 1}
	bulk := engine.NewDatabase(costmodel.TestConfig())
	bn, err := g.Load(bulk)
	if err != nil {
		t.Fatal(err)
	}
	one, on := rowByRow(t, bulk)
	sameDatabase(t, "load", bulk, one)
	for block := range 2 {
		stmts := tpch.NewRefreshStream(g, 150).Statements()
		for phase, part := range [][]string{stmts[:len(stmts)/2], stmts[len(stmts)/2:]} {
			for _, s := range part {
				for _, nd := range []*engine.Node{bn, on} {
					if _, err := nd.Exec(s); err != nil {
						t.Fatalf("%s: %v", s, err)
					}
				}
			}
			sameDatabase(t, []string{"rf1", "rf2"}[phase]+string(rune('a'+block)), bulk, one)
		}
		if bulk.Vacuum(bn.Watermark()) == 0 || one.Vacuum(on.Watermark()) == 0 {
			t.Fatal("the vacuum after RF2 reclaimed nothing")
		}
		sameDatabase(t, "vacuum"+string(rune('a'+block)), bulk, one)
	}
}
