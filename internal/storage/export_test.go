package storage

// Hooks for this package's external tests, which load TPC-H through the
// engine.

// Validate checks the tree's B-tree invariants.
func (t *BTree) Validate() error { return t.validate() }

// SameRelation fails t unless a and b hold the same heap, statistics and
// index entries (see sameRelation).
var SameRelation = sameRelation
