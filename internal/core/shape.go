package core

import (
	"slices"
	"sync"

	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// Plan reuse. An SVP query's WHERE literals become arguments
// (sql.Parameterize), so the queries of one statement shape — the paper's
// templates with fresh parameters — share everything planned from the
// shape: the rewrite and its sub-query template (planQuery's work), a
// prepared sub-query plan per node and claim loop, like a JDBC
// PreparedStatement per connection, and the composition tables with their
// prepared composition. A shape is keyed on its text and the catalog
// version; a kept node plan also re-checks, when it is taken, that nothing
// it was planned from has moved (engine.Prepared.Fresh), and a claim loop
// re-binds it to each partition's arguments or plans afresh where it
// refuses (engine.Prepared.Rebind). So a kept plan is, by construction,
// the plan a fresh one would be. DESIGN.md "Plan reuse" has the rules.

const (
	// shapeCacheSize bounds the shapes the controller keeps; the least
	// recently used one goes first, with its plans and tables.
	shapeCacheSize = 64
	// shapePlansPerNode bounds a shape's kept sub-query plans per node:
	// a query runs one claim loop per node, and a second query of the
	// shape may run beside it.
	shapePlansPerNode = 2
	// shapeTables bounds a shape's kept composition tables, one per set
	// of partial-column kinds.
	shapeTables = 2
)

// shapeKey identifies a shape: its parameterized text and the catalog
// version it was planned against.
type shapeKey struct {
	text    string
	version int64
}

// shape is what every query of one statement shape shares.
type shape struct {
	rw *Rewrite
	// sub is the sub-query template: the partial with the shape's nargs
	// arguments, then each VP reference's range as two more placeholders.
	sub      *sql.SelectStmt
	nargs    int
	identity bool // the composition is the concatenation (identityCompose)

	used uint64 // the cache's clock at the last lookup (under the cache's mutex)

	mu      sync.Mutex
	evicted bool
	plans   map[*NodeProcessor][]*engine.Prepared
	tables  []*memdb.Table
}

func newShape(rw *Rewrite, nargs int) *shape {
	return &shape{
		rw: rw, sub: rw.template(nargs), nargs: nargs,
		identity: identityCompose(rw),
		plans:    map[*NodeProcessor][]*engine.Prepared{},
	}
}

// takePlan hands a claim loop on p a kept plan of the shape that is still
// fresh, or nil; stale ones are dropped.
func (s *shape) takePlan(p *NodeProcessor) *engine.Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := s.plans[p]; len(l) > 0; l = s.plans[p] {
		plan := l[len(l)-1]
		l[len(l)-1] = nil
		s.plans[p] = l[:len(l)-1]
		if plan.Fresh() {
			return plan
		}
	}
	return nil
}

// putPlan keeps the plan a claim loop on p is done with, unless it is
// spilled or stale, the shape was evicted or p's list is full.
func (s *shape) putPlan(p *NodeProcessor, plan *engine.Prepared) {
	if plan == nil || !plan.Fresh() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.evicted && len(s.plans[p]) < shapePlansPerNode {
		s.plans[p] = append(s.plans[p], plan)
	}
}

// takeTable hands a composition a kept table its column kinds fit, or
// prepares a new one in m.
func (s *shape) takeTable(m *memdb.MemDB, kinds []sqltypes.Kind) (*memdb.Table, error) {
	s.mu.Lock()
	for i, t := range s.tables {
		if t.Fits(kinds) {
			s.tables = slices.Delete(s.tables, i, i+1)
			s.mu.Unlock()
			return t, nil
		}
	}
	s.mu.Unlock()
	return m.Prepare(s.rw.Compose, s.rw.PartialCols, kinds)
}

// putTable truncates a table a composition is done with and keeps it,
// unless the shape was evicted; a full list drops its oldest table.
func (s *shape) putTable(t *memdb.Table) {
	t.Truncate()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return
	}
	if len(s.tables) == shapeTables {
		s.tables = slices.Delete(s.tables, 0, 1)
	}
	s.tables = append(s.tables, t)
}

// evict drops what the shape keeps; what is in use is dropped when its
// query puts it back.
func (s *shape) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evicted, s.plans, s.tables = true, nil, nil
}

// shapeCache is the controller's bounded map of shapes.
type shapeCache struct {
	mu    sync.Mutex
	clock uint64
	m     map[shapeKey]*shape
}

// shapeOf parameterizes sel and returns its shape, planning the rewrite
// on a miss, with the query's own arguments.
func (e *Engine) shapeOf(sel *sql.SelectStmt) (*shape, []sqltypes.Value, error) {
	shaped, args := sql.Parameterize(sel, engine.FoldLiteral)
	key := shapeKey{text: shaped.SQL(), version: e.db.CatalogVersion()}
	if sh := e.shapes.get(key); sh != nil {
		return sh, args, nil
	}
	rw, err := PlanSVP(shaped, e.catalog)
	if err != nil {
		return nil, nil, err
	}
	return e.shapes.add(key, newShape(rw, len(args))), args, nil
}

func (c *shapeCache) get(key shapeKey) *shape {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.m[key]
	if sh != nil {
		c.clock++
		sh.used = c.clock
	}
	return sh
}

// add keeps sh under key — or the shape another query added first — and
// evicts the least recently used shape when the cache is full.
func (c *shapeCache) add(key shapeKey, sh *shape) *shape {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[key]; old != nil {
		return old
	}
	if c.m == nil {
		c.m = map[shapeKey]*shape{}
	}
	if len(c.m) >= shapeCacheSize {
		var lru shapeKey
		var oldest *shape
		for k, s := range c.m {
			if oldest == nil || s.used < oldest.used {
				lru, oldest = k, s
			}
		}
		oldest.evict()
		delete(c.m, lru)
	}
	c.clock++
	sh.used = c.clock
	c.m[key] = sh
	return sh
}
