// Package core implements the Apuama Engine — the paper's contribution:
// a layer between the C-JDBC-style controller (internal/cluster) and the
// black-box node engines (internal/engine) that adds intra-query
// parallelism via Simple Virtual Partitioning while preserving replica
// consistency under concurrent updates.
//
// Components map one-to-one onto the paper's Fig. 1(b):
//
//	Cluster Administrator   → Engine (query parser, data catalog, IQE)
//	Node Processor          → NodeProcessor (per-node connection pool)
//	Result Composer         → composer.go over internal/memdb (HSQLDB)
//	blocking mechanism (§3) → blocker.go (per-node transaction counters)
package core

import (
	"fmt"

	"apuama/internal/engine"
	"apuama/internal/sqltypes"
)

// VPTable describes one virtually-partitionable table: its virtual
// partitioning attribute and the root table whose key domain defines the
// partition bounds (a fact table partitioned on its own primary key is
// its own root; lineitem derives its partitioning from orders through
// the l_orderkey foreign key).
type VPTable struct {
	Table    string
	VPA      string
	Root     string
	RootAttr string
}

// Catalog is Apuama's Data Catalog: which tables can be virtually
// partitioned and how. It is populated at installation time (§3 calls
// this Apuama's metadata).
type Catalog struct {
	tables map[string]VPTable
	// keyNames indexes every VPA/root attribute name, used to recognize
	// derived-partitioning correlation predicates in sub-queries.
	keyNames map[string]bool
}

// NewCatalog builds a catalog from table descriptors.
func NewCatalog(tables ...VPTable) *Catalog {
	c := &Catalog{tables: map[string]VPTable{}, keyNames: map[string]bool{}}
	for _, t := range tables {
		c.tables[t.Table] = t
		c.keyNames[t.VPA] = true
		c.keyNames[t.RootAttr] = true
	}
	return c
}

// TPCHCatalog returns the paper's configuration: orders partitioned on
// its primary key, lineitem derived-partitioned on l_orderkey.
func TPCHCatalog() *Catalog {
	return NewCatalog(
		VPTable{Table: "orders", VPA: "o_orderkey", Root: "orders", RootAttr: "o_orderkey"},
		VPTable{Table: "lineitem", VPA: "l_orderkey", Root: "orders", RootAttr: "o_orderkey"},
	)
}

// Lookup returns the VP descriptor for a table.
func (c *Catalog) Lookup(table string) (VPTable, bool) {
	t, ok := c.tables[table]
	return t, ok
}

// IsKeyAttr reports whether the column name is a partitioning key of any
// catalogued table.
func (c *Catalog) IsKeyAttr(name string) bool { return c.keyNames[name] }

// Tables returns the catalogued table names.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for t := range c.tables {
		out = append(out, t)
	}
	return out
}

// KeyDomain computes the partitioning key domain [lo, hi] from the root
// table's statistics, as the paper computes v1/v2 "according to the total
// range of the VPA values".
func (c *Catalog) KeyDomain(db *engine.Database, table string) (lo, hi int64, err error) {
	vt, ok := c.Lookup(table)
	if !ok {
		return 0, 0, fmt.Errorf("table %q is not virtually partitioned", table)
	}
	rel, err := db.Relation(vt.Root)
	if err != nil {
		return 0, 0, err
	}
	col := rel.Schema.ColIndex(vt.RootAttr)
	if col < 0 {
		return 0, 0, fmt.Errorf("root table %s has no column %s", vt.Root, vt.RootAttr)
	}
	minV, maxV := rel.ColRange(col)
	if minV.IsNull() || maxV.IsNull() {
		return 0, 0, fmt.Errorf("table %s is empty; no key domain", vt.Root)
	}
	if minV.K != sqltypes.KindInt || maxV.K != sqltypes.KindInt {
		return 0, 0, fmt.Errorf("partitioning attribute %s.%s is not integer", vt.Root, vt.RootAttr)
	}
	return minV.I, maxV.I, nil
}

// Partition computes sub-query i's half-open interval [v1, v2) when
// splitting [lo, hi] into n equal-width ranges (the paper's running
// example: [1, 6,000,000] over 4 nodes).
func Partition(lo, hi int64, n, i int) (v1, v2 int64) {
	span := hi - lo + 1
	width := span / int64(n)
	rem := span % int64(n)
	v1 = lo + int64(i)*width + min(int64(i), rem)
	v2 = v1 + width
	if int64(i) < rem {
		v2++
	}
	if i == n-1 {
		v2 = hi + 1
	}
	return v1, v2
}
