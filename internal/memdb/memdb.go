// Package memdb provides the fast in-memory composition database the
// paper uses HSQLDB for: Apuama's Result Composer inserts each node's
// partial result into a temporary table here and runs the composition
// query (global re-aggregation, ordering, limiting) against it.
//
// It is an instance of our own engine with a free cost model — an
// in-memory database pays no simulated disk IO.
package memdb

import (
	"fmt"
	"sync/atomic"

	"apuama/internal/costmodel"
	"apuama/internal/engine"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// MemDB is one in-memory composition database.
type MemDB struct {
	db   *engine.Database
	node *engine.Node
	seq  atomic.Int64
}

// New creates an empty in-memory database.
func New() *MemDB {
	// Zero latencies: an in-memory database pays no IO whatever its pool
	// holds. The pool only has to stay small — composition tables come
	// and go with their queries, each on fresh page IDs, and an unbounded
	// pool would remember every one of them forever.
	cfg := costmodel.Config{
		PageSize:   64 * 1024,
		CachePages: 1 << 10,
	}
	db := engine.NewDatabase(cfg)
	return &MemDB{db: db, node: engine.NewNode(0, db)}
}

// LoadResult creates a table holding the given rows in one shot. Column
// kinds are inferred from the data, with numeric columns widened to float
// when any row requires it. The unique table name is returned so
// concurrent compositions never collide.
func (m *MemDB) LoadResult(prefix string, cols []string, rows []sqltypes.Row) (string, error) {
	ld := m.NewLoader(prefix, cols)
	if err := ld.Append(rows); err != nil {
		return "", err
	}
	return ld.Finish()
}

// Loader loads partial rows into a composition table incrementally, so
// composition can begin before the last partial arrives. Column kinds
// are inferred from the rows seen so far; when a later row forces a
// widening (or a column that looked all-NULL turns out typed), the
// table is rebuilt from the retained rows — the end state is identical
// to a one-shot LoadResult over the same rows. Not safe for concurrent
// use; one Loader belongs to one composing query.
type Loader struct {
	m      *MemDB
	prefix string
	cols   []string
	name   string
	rel    *storage.Relation
	kinds  []sqltypes.Kind
	rows   []sqltypes.Row // everything appended, for rebuilds
}

// NewLoader prepares an incremental load; the table is created lazily on
// the first Append (or by Finish for an empty result).
func (m *MemDB) NewLoader(prefix string, cols []string) *Loader {
	return &Loader{m: m, prefix: prefix, cols: cols}
}

// Append loads a slice of rows into the table, creating or rebuilding it
// as kind inference evolves. The rows are retained by reference.
func (l *Loader) Append(rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	l.rows = append(l.rows, rows...)
	if l.rel != nil && !l.widens(rows) {
		return l.insert(rows)
	}
	return l.rebuild()
}

// widens reports whether any incoming value is incompatible with the
// kinds the table was created with (requiring a rebuild).
func (l *Loader) widens(rows []sqltypes.Row) bool {
	for _, row := range rows {
		for i, v := range row {
			if i >= len(l.kinds) || v.IsNull() {
				continue
			}
			if v.K != l.kinds[i] && !(v.K == sqltypes.KindInt && l.kinds[i] == sqltypes.KindFloat) {
				return true
			}
		}
	}
	return false
}

// Drop removes the loader's table from the database and releases the
// retained rows: a composition table lives only as long as the query it
// serves. Safe to call at any point, more than once.
func (l *Loader) Drop() {
	l.m.db.DropTable(l.name) // no table yet: no such name, a no-op
	l.rows, l.rel, l.name, l.kinds = nil, nil, "", nil
}

// Finish returns the loaded table's name, creating an empty table if no
// rows were ever appended.
func (l *Loader) Finish() (string, error) {
	if l.rel == nil {
		if err := l.rebuild(); err != nil {
			return "", err
		}
	}
	return l.name, nil
}

// Rows returns the number of rows loaded so far.
func (l *Loader) Rows() int { return len(l.rows) }

// rebuild (re)creates the table with kinds inferred over every retained
// row and re-inserts them, dropping the narrower predecessor. Fresh names
// keep concurrent compositions from colliding.
func (l *Loader) rebuild() error {
	if len(l.cols) == 0 {
		return fmt.Errorf("memdb: result has no columns")
	}
	l.m.db.DropTable(l.name)
	l.name = fmt.Sprintf("%s_%d", l.prefix, l.m.seq.Add(1))
	l.kinds = inferKinds(len(l.cols), l.rows)
	st := &sql.CreateTableStmt{Name: l.name}
	for i, c := range l.cols {
		st.Columns = append(st.Columns, sql.ColumnDef{Name: c, Type: l.kinds[i]})
	}
	rel, err := l.m.db.CreateTable(st)
	if err != nil {
		return err
	}
	l.rel = rel
	return l.insert(l.rows)
}

func (l *Loader) insert(rows []sqltypes.Row) error {
	for _, row := range rows {
		conv := make(sqltypes.Row, len(row))
		for i, v := range row {
			conv[i] = widen(v, l.kinds[i])
		}
		if _, err := l.rel.Insert(0, conv); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports how many tables the database holds right now and how
// many it has ever created — the pair the leak tests assert on.
func (m *MemDB) Stats() (live int, created int64) {
	return len(m.db.Relations()), m.seq.Load()
}

// Query runs a SELECT against the composition database.
func (m *MemDB) Query(sqlText string) (*engine.Result, error) {
	return m.node.Query(sqlText)
}

// QueryStmt runs a parsed SELECT against the composition database.
func (m *MemDB) QueryStmt(sel *sql.SelectStmt) (*engine.Result, error) {
	return m.node.QueryStmt(sel)
}

// inferKinds derives column kinds from data: the first non-null value
// sets the kind; ints widen to float if any float appears.
func inferKinds(n int, rows []sqltypes.Row) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, n)
	for _, row := range rows {
		for i, v := range row {
			if i >= n || v.IsNull() {
				continue
			}
			switch {
			case kinds[i] == sqltypes.KindNull:
				kinds[i] = v.K
			case kinds[i] == sqltypes.KindInt && v.K == sqltypes.KindFloat:
				kinds[i] = sqltypes.KindFloat
			}
		}
	}
	for i := range kinds {
		if kinds[i] == sqltypes.KindNull {
			kinds[i] = sqltypes.KindString // all-NULL column: any kind works
		}
	}
	return kinds
}

func widen(v sqltypes.Value, k sqltypes.Kind) sqltypes.Value {
	if v.K == sqltypes.KindInt && k == sqltypes.KindFloat {
		return sqltypes.NewFloat(float64(v.I))
	}
	return v
}
