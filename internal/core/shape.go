package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"apuama/internal/engine"
	"apuama/internal/memdb"
	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// Plan reuse. A SELECT's WHERE literals become arguments
// (sql.Parameterize), so the queries of one statement shape — the paper's
// templates with fresh parameters, a point lookup with a fresh key —
// share everything planned from the shape, whichever route each takes. A
// query routed to SVP shares the rewrite and its sub-query template
// (planned once per shape, or refused once with the reason every later
// query falls back for), a prepared sub-query plan per node and claim
// loop, like a JDBC PreparedStatement per connection, and the composition
// tables with their prepared composition. A query that passes through
// shares a prepared plan of the shape per node. A shape is keyed on its
// text and the catalog version; a kept node plan also re-checks, when it
// is taken, that nothing it was planned from has moved
// (engine.Prepared.Fresh), and its user re-binds it to the query's
// arguments or plans afresh where it refuses (engine.Prepared.Rebind). So
// a kept plan is, by construction, the plan a fresh one would be.
// DESIGN.md "Plan reuse" has the rules.

const (
	// shapeCacheSize bounds the shapes the controller keeps; the least
	// recently used one goes first, with its plans and tables.
	shapeCacheSize = 64
	// shapePlansPerNode bounds a shape's kept plans per node and route:
	// an SVP query runs one claim loop per node, and a second query of
	// the shape may run beside it.
	shapePlansPerNode = 2
	// shapeTables bounds a shape's kept composition tables, one per set
	// of partial-column kinds.
	shapeTables = 2
)

// shape is what every query of one statement shape shares.
type shape struct {
	nargs   int
	version int64  // the catalog version the shape was planned against
	used    uint64 // the cache's clock at the last lookup (under the cache's mutex)
	// spills is set once a plan of the shape that passed through spilled
	// (engine.Prepared.Spilled): no query that passes through re-binds a
	// kept plan of it, so the cache evicts it first.
	spills atomic.Bool

	// The SVP side, planned by the first query of the shape the route
	// sends to SVP (svp): the rewrite and the sub-query template — the
	// partial with the shape's nargs arguments, then each VP reference's
	// range as two more placeholders — or the reason SVP refused the
	// shape.
	svpOnce    sync.Once
	rw         *Rewrite
	sub        *sql.SelectStmt
	identity   bool // the composition is the concatenation (identityCompose)
	ineligible error

	mu      sync.Mutex
	evicted bool
	plans   map[planKey][]*engine.Prepared
	tables  []*memdb.Table
}

// planKey names one free list of a shape's node plans: p's sub-query
// plans, or its plans of the shape itself for queries that pass through.
type planKey struct {
	p    *NodeProcessor
	pass bool
}

// svp plans the shape's rewrite from sel, one of its statements, the first
// time it is asked, and returns the reason SVP refuses the shape (nil when
// it does not).
func (s *shape) svp(sel *sql.SelectStmt, cat *Catalog) error {
	s.svpOnce.Do(func() {
		rw, err := PlanSVP(sel, cat)
		if err != nil {
			s.ineligible = err
			return
		}
		s.setRewrite(rw)
	})
	return s.ineligible
}

func (s *shape) setRewrite(rw *Rewrite) {
	s.rw, s.sub, s.identity = rw, rw.template(s.nargs), identityCompose(rw)
}

// take hands out a kept plan of k's free list that is still fresh, or
// nil; stale ones are dropped.
func (s *shape) take(k planKey) *engine.Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := s.plans[k]; len(l) > 0; l = s.plans[k] {
		plan := l[len(l)-1]
		l[len(l)-1] = nil
		s.plans[k] = l[:len(l)-1]
		if plan.Fresh() {
			return plan
		}
	}
	return nil
}

// put keeps a plan on k's free list, unless it is spilled or stale, the
// shape was evicted or the list is full.
func (s *shape) put(k planKey, plan *engine.Prepared) {
	if plan == nil || !plan.Fresh() {
		if k.pass && plan != nil && plan.Spilled() {
			s.spills.Store(true)
		}
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted || len(s.plans[k]) >= shapePlansPerNode {
		return
	}
	if s.plans == nil {
		s.plans = map[planKey][]*engine.Prepared{}
	}
	s.plans[k] = append(s.plans[k], plan)
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

// shapeCache is the controller's bounded map of shapes, keyed on their
// text; a shape planned against another catalog version is replaced.
type shapeCache struct {
	mu    sync.Mutex
	clock uint64
	m     map[string]*shape
}

// keyBufs holds the buffers shape keys are rendered into.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// shapeOf returns the shape of sel — already parameterized, with nargs
// arguments — at the current catalog version, adding it on a miss. The
// key is rendered into a pooled buffer and the map read with it as it
// is, so a hit allocates nothing.
func (e *Engine) shapeOf(sel *sql.SelectStmt, nargs int) *shape {
	version := e.db.CatalogVersion()
	buf := keyBufs.Get().(*[]byte)
	key := sel.AppendSQL((*buf)[:0])
	sh := e.shapes.get(key, version)
	if sh == nil {
		var evicted bool
		sh, evicted = e.shapes.add(string(key), &shape{nargs: nargs, version: version})
		e.st.shapes.Inc()
		if evicted {
			e.st.shapeEvictions.Inc()
		}
	}
	*buf = key
	keyBufs.Put(buf)
	return sh
}

func (c *shapeCache) get(key []byte, version int64) *shape {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.m[string(key)]
	if sh == nil || sh.version != version {
		return nil
	}
	c.clock++
	sh.used = c.clock
	return sh
}

// add keeps sh under key — or the shape another query added first at the
// same catalog version — and, when the cache is full, evicts one shape:
// the least recently used of those that spill, or else the least recently
// used. evicted reports that a shape went.
func (c *shapeCache) add(key string, sh *shape) (_ *shape, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[key]; old != nil {
		if old.version == sh.version {
			return old, false
		}
		old.evict()
		delete(c.m, key)
	}
	if c.m == nil {
		c.m = map[string]*shape{}
	}
	if len(c.m) >= shapeCacheSize {
		var victim string
		var v *shape
		for k, s := range c.m {
			if v == nil || evictBefore(s, v) {
				victim, v = k, s
			}
		}
		v.evict()
		delete(c.m, victim)
		evicted = true
	}
	c.clock++
	sh.used = c.clock
	c.m[key] = sh
	return sh, evicted
}

// evictBefore orders the cache's eviction: shapes that spill first, each
// group least recently used first.
func evictBefore(a, b *shape) bool {
	if sa, sb := a.spills.Load(), b.spills.Load(); sa != sb {
		return sa
	}
	return a.used < b.used
}
