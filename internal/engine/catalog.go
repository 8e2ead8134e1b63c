// Package engine implements a single-node relational engine: the
// PostgreSQL stand-in each cluster node runs. It parses SQL (via
// internal/sql), plans with a rule- and selectivity-based planner that
// honours the enable_seqscan session knob, and executes volcano-style
// operators over internal/storage heaps and B-trees, charging simulated
// IO to the node's buffer pool and cost meter.
//
// A Database holds the shared catalog and heap segments; a Node is one
// cluster member's view of it — its own buffer pool, snapshot watermark
// and session settings. See DESIGN.md "Substitutions" for why replicas
// share heap memory.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"apuama/internal/costmodel"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// Database is the shared catalog plus heap storage that every replica
// node attaches to.
type Database struct {
	cfg costmodel.Config

	mu        sync.RWMutex
	relations map[string]*storage.Relation

	// writeSeq hands out dense write IDs when nodes run standalone
	// (the cluster middleware supplies IDs itself in cluster mode).
	writeSeq atomic.Int64

	// columnar enables segment-store scans (-columnar): the planner
	// replaces eligible heap scans with colScanOp. Database-wide because
	// segments live on the shared relations, not per node.
	columnar atomic.Bool
	mqo      atomic.Bool
}

// NewDatabase creates an empty database with the given cost model.
func NewDatabase(cfg costmodel.Config) *Database {
	return &Database{cfg: cfg, relations: map[string]*storage.Relation{}}
}

// Config returns the database's cost-model configuration.
func (db *Database) Config() costmodel.Config { return db.cfg }

// CreateTable adds a relation from a parsed declaration. The primary key,
// if declared, becomes a unique clustered index (TPC-H base tables are
// loaded in primary-key order, the property SVP relies on).
func (db *Database) CreateTable(st *sql.CreateTableStmt) (*storage.Relation, error) {
	schema := storage.Schema{}
	for _, c := range st.Columns {
		schema.Cols = append(schema.Cols, storage.Column{Name: c.Name, Kind: c.Type})
	}
	rel := storage.NewRelation(st.Name, schema, db.cfg.PageSize)
	if len(st.PrimaryKey) > 0 {
		if _, err := rel.AddIndex(st.Name+"_pkey", st.PrimaryKey, true, true); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.relations[st.Name]; dup {
		return nil, fmt.Errorf("table %q already exists", st.Name)
	}
	db.relations[st.Name] = rel
	return rel, nil
}

// DropTable removes a relation from the catalog, releasing its heap and
// indexes to the collector once in-flight scans let go of them. Dropping
// a name that does not exist is a no-op.
func (db *Database) DropTable(name string) {
	db.mu.Lock()
	delete(db.relations, name)
	db.mu.Unlock()
}

// CreateIndex adds an index from a parsed declaration.
func (db *Database) CreateIndex(st *sql.CreateIndexStmt) error {
	rel, err := db.Relation(st.Table)
	if err != nil {
		return err
	}
	_, err = rel.AddIndex(st.Name, st.Columns, false, st.Clustered)
	return err
}

// Relation looks up a table by name.
func (db *Database) Relation(name string) (*storage.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rel, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	return rel, nil
}

// Relations returns the names of all tables.
func (db *Database) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.relations))
	for n := range db.relations {
		names = append(names, n)
	}
	return names
}

// Vacuum reclaims row versions deleted at or before horizon in every
// relation. The caller must quiesce the cluster first (see
// storage.Relation.Vacuum).
func (db *Database) Vacuum(horizon int64) int64 {
	db.mu.RLock()
	rels := make([]*storage.Relation, 0, len(db.relations))
	for _, rel := range db.relations {
		rels = append(rels, rel)
	}
	db.mu.RUnlock()
	var total int64
	for _, rel := range rels {
		total += rel.Vacuum(horizon)
	}
	return total
}

// SetColumnar enables or disables columnar segment scans for every node
// attached to this database.
func (db *Database) SetColumnar(on bool) { db.columnar.Store(on) }

// ColumnarEnabled reports whether columnar segment scans are enabled.
func (db *Database) ColumnarEnabled() bool { return db.columnar.Load() }

// SetMQO enables or disables cooperative shared scans (the multi-query
// optimization layer) for every node attached to this database.
func (db *Database) SetMQO(on bool) { db.mqo.Store(on) }

// MQOEnabled reports whether cooperative shared scans are enabled.
func (db *Database) MQOEnabled() bool { return db.mqo.Load() }

// SegmentBytes returns the simulated size of all currently materialized
// column segments across relations (the apuama_storage_segment_bytes
// gauge).
func (db *Database) SegmentBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, rel := range db.relations {
		total += rel.SegmentBytes()
	}
	return total
}

// NextWriteID allocates the next dense write ID (standalone mode).
func (db *Database) NextWriteID() int64 { return db.writeSeq.Add(1) }

// CurrentWriteID returns the latest allocated write ID.
func (db *Database) CurrentWriteID() int64 { return db.writeSeq.Load() }

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows []sqltypes.Row
}

// String renders the result as an aligned text table (used by the shell
// and examples).
func (r *Result) String() string {
	if r == nil {
		return ""
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.K == sqltypes.KindFloat {
				s = fmt.Sprintf("%.2f", v.F)
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b []byte
	for i, c := range r.Cols {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = append(b, fmt.Sprintf("%-*s", widths[i], c)...)
	}
	b = append(b, '\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b = append(b, " | "...)
			}
			b = append(b, fmt.Sprintf("%-*s", widths[i], s)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
