// Package memdb provides the fast in-memory composition database the
// paper uses HSQLDB for: Apuama's Result Composer inserts each node's
// partial result into a temporary table here and runs the composition
// query (global re-aggregation, ordering, limiting) against it. The
// controller keeps such a table and its prepared composition across the
// queries of one statement shape (Table); Loader builds one for a single
// composition.
//
// It is an instance of our own engine with a free cost model — an
// in-memory database pays no simulated disk IO.
package memdb

import (
	"fmt"
	"slices"
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
	// and go, each on fresh page IDs, and an unbounded pool would
	// remember every one of them forever. Pages are PostgreSQL-sized: a
	// page's slot arrays are allocated whole when it is created (a kept
	// Table reuses them), and most composition tables hold a few dozen
	// partial rows, which one 8 KB page takes.
	cfg := costmodel.Config{
		PageSize:   8 * 1024,
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
		return insert(l.rel, l.kinds, rows)
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
	l.m.db.DropTable(l.name)
	l.kinds = InferKinds(len(l.cols), l.rows)
	name, rel, err := l.m.create(l.prefix, l.cols, l.kinds)
	if err != nil {
		return err
	}
	l.name, l.rel = name, rel
	return insert(l.rel, l.kinds, l.rows)
}

// create adds a table of the given columns and kinds under a fresh name.
func (m *MemDB) create(prefix string, cols []string, kinds []sqltypes.Kind) (string, *storage.Relation, error) {
	if len(cols) == 0 {
		return "", nil, fmt.Errorf("memdb: result has no columns")
	}
	name := fmt.Sprintf("%s_%d", prefix, m.seq.Add(1))
	st := &sql.CreateTableStmt{Name: name}
	for i, c := range cols {
		k := kinds[i]
		if k == sqltypes.KindNull {
			k = sqltypes.KindString // all-NULL column: any kind works
		}
		st.Columns = append(st.Columns, sql.ColumnDef{Name: c, Type: k})
	}
	rel, err := m.db.CreateTable(st)
	return name, rel, err
}

// insert stores the rows in rel. A row is retained by reference already,
// so it is stored as it is unless a value must widen to its column's
// kind; only then is it copied.
func insert(rel *storage.Relation, kinds []sqltypes.Kind, rows []sqltypes.Row) error {
	for _, row := range rows {
		if narrower(row, kinds) {
			conv := make(sqltypes.Row, len(row))
			for i, v := range row {
				conv[i] = widen(v, kinds[i])
			}
			row = conv
		}
		if _, err := rel.Insert(0, row); err != nil {
			return err
		}
	}
	return nil
}

// narrower reports whether some value of row widens to its column's kind.
func narrower(row sqltypes.Row, kinds []sqltypes.Kind) bool {
	for i, v := range row {
		if i < len(kinds) && v.K == sqltypes.KindInt && kinds[i] == sqltypes.KindFloat {
			return true
		}
	}
	return false
}

// Table is a composition table kept across queries with its composition
// query prepared over it: the Result Composer's HSQLDB temporary table and
// PreparedStatement. Each query loads its partial rows, composes and
// truncates, instead of creating, planning and dropping a table (Loader).
// The table is in the database's catalog only while the composition is
// planned; the plan holds it from then on, so nothing else can name it and
// Stats never counts it as live. It belongs to one query at a time.
//
// A table is keyed on the column kinds it was prepared for (InferKinds,
// where an all-NULL column's kind is unknown), and serves a load whose
// kinds match them wherever both are known (Fits). A load widens its ints
// by its own kinds, so the stored rows are those a table made for the
// load would hold; and the composition's plan reads no kind and no
// statistic of its table, so it is the plan of any rows loaded into it.
type Table struct {
	rel   *storage.Relation
	kinds []sqltypes.Kind
	plan  *engine.Prepared
	nd    *engine.Node
}

// Prepare creates a composition table of the given columns and kinds and
// plans compose over it, its FROM naming the table. The plan reads no
// statistic of the table — one table, no index, no columnar scan in an
// in-memory database — so the plan of the empty table is the plan of any
// rows loaded into it.
func (m *MemDB) Prepare(compose *sql.SelectStmt, cols []string, kinds []sqltypes.Kind) (*Table, error) {
	name, rel, err := m.create("svp", cols, kinds)
	if err != nil {
		return nil, err
	}
	defer m.db.DropTable(name)
	sel := sql.CloneSelect(compose)
	sel.From[0].Name = name
	plan, err := m.node.Prepare(sel, nil, engine.QueryOpts{})
	if err != nil {
		return nil, err
	}
	return &Table{rel: rel, kinds: slices.Clone(kinds), plan: plan, nd: m.node}, nil
}

// Fits reports whether a load of the given kinds (InferKinds over every
// row it loads) may use the table: each column's kinds agree wherever
// both are known.
func (t *Table) Fits(kinds []sqltypes.Kind) bool {
	for i, k := range kinds {
		if k != t.kinds[i] && k != sqltypes.KindNull && t.kinds[i] != sqltypes.KindNull {
			return false
		}
	}
	return len(kinds) == len(t.kinds)
}

// Load appends rows of a load whose kinds are kinds (InferKinds over
// every row it loads, which the table Fits), widening an int in a float
// column. The rows are retained by reference until Truncate.
func (t *Table) Load(rows []sqltypes.Row, kinds []sqltypes.Kind) error {
	return insert(t.rel, kinds, rows)
}

// Compose runs the prepared composition over the rows loaded so far. Its
// result rows are the plan's own heap rows or loaded rows, never the
// table's slots, so they outlive Truncate.
func (t *Table) Compose() (*engine.Result, error) {
	cur, err := t.plan.OpenAt(t.nd.Watermark(), engine.QueryOpts{}, nil)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	res := &engine.Result{Cols: cur.Cols()}
	b := sqltypes.GetBatch()
	defer sqltypes.PutBatch(b)
	for {
		if err := cur.Next(b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return res, nil
		}
		res.Rows = append(res.Rows, b.Rows...)
	}
}

// Truncate drops every loaded row, keeping the table's pages for the
// next load: a kept table pins no partial row, and so no pooled arena.
func (t *Table) Truncate() { t.rel.Truncate() }

// Stats reports how many tables the database's catalog holds right now
// and how many it has ever created (kept composition tables included) —
// the pair the leak and reuse tests assert on.
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

// InferKinds derives the kinds of n columns from the rows of every part:
// the first non-null value sets a column's kind; ints widen to float if
// any float appears; an all-NULL column's kind is unknown (KindNull), and
// a table creates it as a string column.
func InferKinds(n int, parts ...[]sqltypes.Row) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, n)
	for _, rows := range parts {
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
	}
	return kinds
}

func widen(v sqltypes.Value, k sqltypes.Kind) sqltypes.Value {
	if v.K == sqltypes.KindInt && k == sqltypes.KindFloat {
		return sqltypes.NewFloat(float64(v.I))
	}
	return v
}
